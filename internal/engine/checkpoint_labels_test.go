package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine/store"
)

// canonicalResult is res with what legitimately differs between an
// uninterrupted run and a resumed one cleared — the resumed marker, the
// cache-hit flags and the elapsed time — encoded for comparison.
func canonicalResult(t *testing.T, res *Result) string {
	t.Helper()
	strip := func(vr *VariantResult) {
		vr.Resumed, vr.CacheHit, vr.LabelCacheHit = false, false, false
	}
	c := *res
	c.ElapsedSeconds = 0
	c.Variants = append([]VariantResult(nil), res.Variants...)
	for i := range c.Variants {
		strip(&c.Variants[i])
	}
	strip(&c.Best)
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return string(raw)
}

// runCapturingLabels executes a single-family req to completion on a
// fresh executor. It returns the result and the first checkpoint that
// carries the family's labels but no finished variant — the snapshot a
// failover right after the label stage would forward — after a JSON
// round trip, exactly as it crosses the wire and the store.
func runCapturingLabels(t *testing.T, req Request) (*Result, *Checkpoint) {
	t.Helper()
	var mu sync.Mutex
	var labeled *Checkpoint
	x := NewLocalExecutor(LocalExecutorOptions{})
	res, err := x.Execute(context.Background(), req, func(p Progress) {
		cp := p.Checkpoint
		if cp == nil || len(cp.Labels) == 0 || len(cp.Variants) > 0 {
			return
		}
		mu.Lock()
		if labeled == nil {
			labeled = cp
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if labeled == nil {
		t.Fatalf("no checkpoint carried labels before the first variant finished")
	}
	raw, err := json.Marshal(labeled)
	if err != nil {
		t.Fatalf("encoding checkpoint: %v", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	return res, &cp
}

// resumeCold executes req from cp on a fresh executor — a replacement
// worker with empty caches — and returns the result with the number of
// models it had to train.
func resumeCold(t *testing.T, req Request, cp *Checkpoint) (*Result, int) {
	t.Helper()
	x := NewLocalExecutor(LocalExecutorOptions{})
	req.Checkpoint = cp
	res, err := x.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res, x.cache.Stats().Entries
}

// TestResumeFromLabelsMatchesUninterrupted is the differential test of
// labels-only checkpoints: a cold worker handed the checkpoint taken
// right after the label stage rebuilds Dnew from the labels and the
// label seed, trains nothing, and returns the same canonical result as
// the run that was never interrupted.
func TestResumeFromLabelsMatchesUninterrupted(t *testing.T) {
	d := testDataset(300, rand.New(rand.NewSource(61)))
	noisy := noisyTestDataset(300, rand.New(rand.NewSource(62)))
	cases := []struct {
		name   string
		req    Request
		kernel string
	}{
		{"hard", Request{Dataset: d, L: 3000, Seed: 7, SD: []string{"prim", "bi"}}, "full"},
		{"prob", Request{Dataset: d, L: 3000, Seed: 8, ProbLabels: true, SD: []string{"prim", "bumping"}}, "full"},
		{"distilled", Request{Dataset: d, L: 2000, Seed: 12, LabelKernel: "distilled"}, "distilled"},
		{"distilled-fallback", Request{Dataset: noisy, L: 2000, Seed: 13, LabelKernel: "distilled", DistillMaxRules: 1}, "full"},
		// M=20 at the paper's L: the whole labeled dataset (48 MB by the
		// old budget's weight) never fit the 32 MiB budget, so a cold
		// replacement retrained; its 10^5 labels fit easily.
		{"morris-m20", Request{Function: "morris", N: 400, L: 100000, Seed: 3}, "full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, cp := runCapturingLabels(t, tc.req)
			if got := want.Best.LabelKernel; got != tc.kernel {
				t.Fatalf("uninterrupted run labeled with %q, want %q", got, tc.kernel)
			}
			if y := cp.Labels["rf"]; len(y) != tc.req.L {
				t.Fatalf("checkpoint carries %d rf labels, want L=%d", len(y), tc.req.L)
			}
			got, trained := resumeCold(t, tc.req, cp)
			if trained != 0 {
				t.Fatalf("cold resume trained %d models, want 0 (labels were checkpointed)", trained)
			}
			for _, vr := range got.Variants {
				if vr.Resumed {
					t.Fatalf("variant %s/%s adopted verbatim; the checkpoint held no finished variant", vr.Metamodel, vr.SD)
				}
			}
			if g, w := canonicalResult(t, got), canonicalResult(t, want); g != w {
				t.Fatalf("resumed result differs from the uninterrupted run:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// TestResumeIgnoresMismatchedLabels: labels of the wrong length, or
// filed under a label key this execution does not compute, are never
// trusted — the family retrains and relabels, and the result still
// matches the uninterrupted run.
func TestResumeIgnoresMismatchedLabels(t *testing.T) {
	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(63))), L: 2000, Seed: 9}
	want, cp := runCapturingLabels(t, req)
	y := cp.Labels["rf"]
	cases := map[string]func(cp *Checkpoint){
		"short": func(cp *Checkpoint) { cp.Labels["rf"] = y[:len(y)-1] },
		"long":  func(cp *Checkpoint) { cp.Labels["rf"] = append(append([]float64(nil), y...), 0) },
		"other-key": func(cp *Checkpoint) {
			cp.LabelKeys["rf"] = strings.Replace(cp.LabelKeys["rf"], "|L=2000|", "|L=2001|", 1)
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			bad := *cp
			bad.Labels = map[string][]float64{"rf": y}
			bad.LabelKeys = map[string]string{"rf": cp.LabelKeys["rf"]}
			tamper(&bad)
			got, trained := resumeCold(t, req, &bad)
			if trained != 1 {
				t.Fatalf("cold resume trained %d models, want 1 (the stage must recompute)", trained)
			}
			if g, w := canonicalResult(t, got), canonicalResult(t, want); g != w {
				t.Fatalf("recomputed result differs from the uninterrupted run:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// TestCheckpointRecorderReplacesLabelsUnderNewKey: a family whose
// inbound labels sit under another key records its recomputed labels
// in their place, refunding the budget, while a repeat under the same
// key is a no-op.
func TestCheckpointRecorderReplacesLabelsUnderNewKey(t *testing.T) {
	var published []*Checkpoint
	sink := newProgressSink(func(p Progress) {
		if p.Checkpoint != nil {
			published = append(published, p.Checkpoint)
		}
	})
	in := &Checkpoint{
		Seq:       4,
		LabelKeys: map[string]string{"rf": "old"},
		Labels:    map[string][]float64{"rf": {1, 0, 1}},
	}
	r := newCheckpointRecorder(in, "h", 3, 32, sink)
	if r.budgetLeft != 8 {
		t.Fatalf("budget after carrying 3 labels = %d, want 8", r.budgetLeft)
	}
	r.labelStageDone("rf", "m", "new", []float64{0, 0, 1}, LabelReport{Kernel: "full"})
	r.labelStageDone("rf", "m", "new", []float64{0, 0, 1}, LabelReport{Kernel: "full"})
	if len(published) != 1 {
		t.Fatalf("published %d snapshots, want 1 (the repeat is a no-op)", len(published))
	}
	cp := published[0]
	if cp.Seq != 5 || cp.LabelKeys["rf"] != "new" || cp.Labels["rf"][0] != 0 || cp.LabelReports["rf"].Kernel != "full" {
		t.Fatalf("snapshot = %+v, want seq 5 with the new key, labels and report", cp)
	}
	if r.budgetLeft != 8 {
		t.Fatalf("budget after replacing = %d, want 8", r.budgetLeft)
	}
	// Labels past the budget keep only the key.
	r.labelStageDone("xgb", "m2", "k2", make([]float64, 2), LabelReport{Kernel: "full"})
	if cp := published[len(published)-1]; cp.LabelKeys["xgb"] != "k2" || cp.Labels["xgb"] != nil {
		t.Fatalf("over-budget family: keys %v labels %v, want key only", cp.LabelKeys, cp.Labels)
	}
}

// TestUpgradeIgnoresOldCheckpointShape plants a stored checkpoint in
// the shape older versions wrote — the whole labeled dataset under
// "labeled" — next to a running record, and restarts the engine over
// the store: the job must resume from the old snapshot's keys and
// finish done, recomputing the labels the new shape would have carried.
func TestUpgradeIgnoresOldCheckpointShape(t *testing.T) {
	dir := t.TempDir()
	req := Request{Dataset: testDataset(250, rand.New(rand.NewSource(64))), L: 800, Seed: 5}
	want, cp := runCapturingLabels(t, req)

	var old map[string]any
	raw, _ := json.Marshal(cp)
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	delete(old, "labels")
	delete(old, "label_reports")
	old["labeled"] = map[string]any{"rf": map[string]any{
		"x": [][]float64{{0.1, 0.2, 0.3}},
		"y": []float64{1},
	}}
	rawOld, _ := json.Marshal(old)

	fs := openFS(t, dir)
	reqJSON, _ := json.Marshal(req)
	now := time.Now()
	if err := fs.PutJob(store.Record{
		ID:          "job-000001",
		Status:      string(StatusRunning),
		SubmittedAt: now.Add(-time.Minute),
		StartedAt:   now.Add(-50 * time.Second),
		Request:     reqJSON,
	}); err != nil {
		t.Fatalf("planting running record: %v", err)
	}
	if err := fs.PutCheckpoint("job-000001", rawOld); err != nil {
		t.Fatalf("planting checkpoint: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x, Store: openFS(t, dir)})
	defer e.Close()
	if rec := e.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery stats = %+v, want the job re-enqueued for resume", rec)
	}
	snap := waitTerminal(t, e, "job-000001", 120*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("job finished %s: %s", snap.Status, snap.Error)
	}
	if n := x.cache.Stats().Entries; n != 1 {
		t.Fatalf("engine trained %d models, want 1 (old-shape labels cannot be reused)", n)
	}
	got, err := e.Result("job-000001")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if g, w := canonicalResult(t, got), canonicalResult(t, want); g != w {
		t.Fatalf("result after upgrade differs from the uninterrupted run:\n got %s\nwant %s", g, w)
	}
}
