package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
)

// digest is the canonical result digest: the result with the fields
// that legitimately differ between equal executions cleared — cache
// hits, checkpoint resumes and wall-clock time.
func digest(res *engine.Result) string {
	c := *res
	c.ElapsedSeconds = 0
	c.Variants = append([]engine.VariantResult(nil), res.Variants...)
	for _, v := range append([]*engine.VariantResult{&c.Best}, ptrs(c.Variants)...) {
		v.CacheHit, v.LabelCacheHit, v.Resumed = false, false, false
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func ptrs(vs []engine.VariantResult) []*engine.VariantResult {
	out := make([]*engine.VariantResult, len(vs))
	for i := range vs {
		out[i] = &vs[i]
	}
	return out
}

// requestKey identifies a request by content.
func requestKey(req engine.Request) string {
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // requests built by the benchmark always encode
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// referenceJobs picks, for every shape, the round-0 job of that shape
// on the lowest-dimensional function, so references stay cheap.
func referenceJobs(w *workload) []job {
	best := map[string]job{}
	for _, j := range w.round(0) {
		if j.RepeatOf >= 0 {
			continue
		}
		cur, ok := best[j.Shape]
		if !ok || dim(j.Function) < dim(cur.Function) {
			best[j.Shape] = j
		}
	}
	out := make([]job, 0, len(w.Shapes))
	for _, sh := range w.Shapes {
		out = append(out, best[sh.Name])
	}
	return out
}

func dim(fn string) int {
	f, err := funcs.Get(fn)
	if err != nil {
		return 1 << 30
	}
	return f.Dim()
}

// references runs the reference jobs on a fresh LocalExecutor at
// GOMAXPROCS 1 and returns request key → result digest.
func references(jobs []job) (map[string]string, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	x := engine.NewLocalExecutor(engine.LocalExecutorOptions{})
	out := make(map[string]string, len(jobs))
	for _, j := range jobs {
		res, err := x.Execute(context.Background(), j.Req, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s on %s: %w", j.Shape, j.Function, err)
		}
		out[requestKey(j.Req)] = digest(res)
	}
	return out, nil
}

// check applies the correctness gate to one finished submission and
// returns the reason it fails, or "". firstDigest is the digest of the
// first submission of an identical request ("" when none).
func check(o *outcome, refs map[string]string, firstDigest string) string {
	if o.Status != engine.StatusDone {
		return fmt.Sprintf("status %s: %s", o.Status, o.Err)
	}
	if o.Result == nil {
		return "done without a result: " + o.Err
	}
	for _, v := range o.Result.Variants {
		if v.Error != "" {
			return "variant error: " + v.Error
		}
	}
	if o.Result.Best.Box == nil {
		return "no box"
	}
	o.Digest = digest(o.Result)
	if ref, ok := refs[requestKey(o.Job.Req)]; ok && ref != o.Digest {
		return gateRefMismatch
	}
	if firstDigest != "" && firstDigest != o.Digest {
		return "differs from its first submission"
	}
	return ""
}

// quality scores the best box on the held-out test set.
func quality(res *engine.Result, test *dataset.Dataset) (wracc, precision float64) {
	b := res.Best.Box
	precision, _ = metrics.PrecisionRecall(b, test)
	return metrics.WRAcc(b, test), precision
}
