package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/telemetry"
)

// span is one traced section of a job at a layer boundary. Spans of one
// job share Job (the benchmark's job key, which is also the request id
// the program carries across processes). Parent is resolved when the
// trace is analysed: each span kind has one parent kind (see parentOf).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the tracer's epoch
	End    float64 `json:"end"`
	Bytes  int64   `json:"bytes,omitempty"`
	// Wal is how many bytes a store call grew the write-ahead log by.
	Wal  int64  `json:"wal,omitempty"`
	Attr string `json:"attr,omitempty"`
}

// parentOf maps a span kind to the kind of its parent; depth follows.
// "client.job" is the root of every job.
var parentOf = map[string]string{
	"api.submit":        "client.job",
	"api.poll":          "client.job",
	"engine.job":        "client.job",
	"engine.queue_wait": "engine.job",
	"store":             "engine.job",
	"executor.local":    "engine.job",
	"executor.gateway":  "engine.job",
	"cluster":           "executor.gateway",
	"executor.worker":   "executor.gateway",
	"stage.local":       "executor.local",
	"stage.worker":      "executor.worker",
}

// kind returns the parentOf key of a span name.
func kind(name string) string {
	switch {
	case strings.HasPrefix(name, "store."):
		return "store"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	}
	return name
}

func depth(k string) int {
	d := 0
	for k != "client.job" {
		p, ok := parentOf[k]
		if !ok {
			return d
		}
		k = kind(p)
		d++
	}
	return d
}

// layer names the layer a span's self time is charged to.
func layer(s span) string {
	switch k := kind(s.Name); k {
	case "client.job":
		return "client"
	case "api.submit", "api.poll":
		return "api"
	case "engine.job", "engine.queue_wait":
		return "engine"
	case "store":
		return "store"
	case "executor.local", "executor.worker":
		return "worker"
	case "executor.gateway", "cluster":
		return "cluster"
	case "stage.local", "stage.worker":
		return stageLayer(s.Attr)
	}
	return "other"
}

// stageLayer maps a production stage span ("train/rf",
// "discover/rf/prim") to the package that does the work.
func stageLayer(stage string) string {
	switch strings.SplitN(stage, "/", 2)[0] {
	case "simulate":
		return "funcs"
	case "train":
		return "metamodel"
	case "sample":
		return "sample"
	case "label":
		return "core"
	case "discover":
		return "sd"
	}
	return "other"
}

// selfLayers are the layers self time is reported for.
var selfLayers = []string{"client", "api", "engine", "store", "cluster", "worker", "funcs", "metamodel", "sample", "core", "sd"}

// tracer records spans in memory; a nil *tracer records nothing, so the
// untraced run pays only for nil checks in the benchmark's own code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// execJob maps a worker execution id to its job key, learned from
	// the first call that carries both (cluster polls).
	execJob map[string]string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), execJob: map[string]string{}}
}

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.epoch).Seconds() }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(job, name string, start, end time.Time, bytes int64, attr string) {
	if t == nil {
		return
	}
	t.add(span{Job: job, Name: name, Start: t.at(start), End: t.at(end), Bytes: bytes, Attr: attr})
}

// tracedExecutor decorates an engine.Executor with a span around each
// Execute. When stages is set it also turns the production stage spans
// delivered through onProgress into spans ending when they arrive.
type tracedExecutor struct {
	inner  engine.Executor
	name   string
	stages bool
	tr     *tracer
}

func (x *tracedExecutor) Execute(ctx context.Context, req engine.Request, onProgress func(engine.Progress)) (*engine.Result, error) {
	job := telemetry.RequestID(ctx)
	start := time.Now()
	seen := 0
	wrapped := func(p engine.Progress) {
		if x.stages && len(p.Timings) > seen {
			now := time.Now()
			for _, st := range p.Timings[seen:] {
				x.tr.record(job, "stage."+strings.TrimPrefix(x.name, "executor."),
					now.Add(-time.Duration(st.Seconds*float64(time.Second))), now, 0, st.Stage)
			}
			seen = len(p.Timings)
		}
		if onProgress != nil {
			onProgress(p)
		}
	}
	res, err := x.inner.Execute(ctx, req, wrapped)
	x.tr.record(job, x.name, start, time.Now(), 0, "")
	return res, err
}

// The cache-stat methods keep Engine.{Cache,LabelCache,RulesetCache}Stats
// working through the decorator.
type cacheStatser interface {
	CacheStats() engine.CacheStats
	LabelCacheStats() engine.CacheStats
	RulesetCacheStats() engine.CacheStats
}

func (x *tracedExecutor) CacheStats() engine.CacheStats {
	if c, ok := x.inner.(cacheStatser); ok {
		return c.CacheStats()
	}
	return engine.CacheStats{}
}

func (x *tracedExecutor) LabelCacheStats() engine.CacheStats {
	if c, ok := x.inner.(cacheStatser); ok {
		return c.LabelCacheStats()
	}
	return engine.CacheStats{}
}

func (x *tracedExecutor) RulesetCacheStats() engine.CacheStats {
	if c, ok := x.inner.(cacheStatser); ok {
		return c.RulesetCacheStats()
	}
	return engine.CacheStats{}
}

// tracedStore decorates a store.Store with a span per method call. Spans
// carry the engine's job id (translated to the job key at analysis).
// When walPath is set, mutating calls also record how many bytes the
// write-ahead log grew by; they are serialized so the growth is
// attributed to the right call.
type tracedStore struct {
	inner   store.Store
	tr      *tracer
	walPath string
	walMu   sync.Mutex
	walSize int64
}

func (s *tracedStore) mutate(name, id string, payload int, fn func() error) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	start := time.Now()
	err := fn()
	end := time.Now()
	var grew int64
	if s.walPath != "" {
		if fi, serr := os.Stat(s.walPath); serr == nil {
			if d := fi.Size() - s.walSize; d > 0 {
				grew = d
			}
			s.walSize = fi.Size()
		}
	}
	if s.tr != nil {
		s.tr.add(span{Job: id, Name: name, Start: s.tr.at(start), End: s.tr.at(end), Bytes: int64(payload), Wal: grew})
	}
	return err
}

func (s *tracedStore) PutJob(rec store.Record) error {
	return s.mutate("store.put_job", rec.ID, len(rec.Request), func() error { return s.inner.PutJob(rec) })
}

func (s *tracedStore) PutResult(id string, result json.RawMessage) error {
	return s.mutate("store.put_result", id, len(result), func() error { return s.inner.PutResult(id, result) })
}

func (s *tracedStore) GetResult(id string) (json.RawMessage, bool, error) {
	start := time.Now()
	r, ok, err := s.inner.GetResult(id)
	s.tr.record(id, "store.get_result", start, time.Now(), int64(len(r)), "")
	return r, ok, err
}

func (s *tracedStore) List() ([]store.Record, error) { return s.inner.List() }

func (s *tracedStore) Delete(id string) error {
	return s.mutate("store.delete", id, 0, func() error { return s.inner.Delete(id) })
}

func (s *tracedStore) Sweep(cutoff time.Time) ([]string, error) { return s.inner.Sweep(cutoff) }

func (s *tracedStore) PutMeta(key string, value json.RawMessage) error {
	return s.mutate("store.put_meta", "", len(value), func() error { return s.inner.PutMeta(key, value) })
}

func (s *tracedStore) GetMeta(key string) (json.RawMessage, bool, error) { return s.inner.GetMeta(key) }

func (s *tracedStore) PutCheckpoint(id string, cp json.RawMessage) error {
	return s.mutate("store.put_checkpoint", id, len(cp), func() error { return s.inner.PutCheckpoint(id, cp) })
}

func (s *tracedStore) GetCheckpoint(id string) (json.RawMessage, bool, error) {
	start := time.Now()
	r, ok, err := s.inner.GetCheckpoint(id)
	s.tr.record(id, "store.get_checkpoint", start, time.Now(), int64(len(r)), "")
	return r, ok, err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// tracedTransport decorates the dispatcher's HTTP transport with a span
// per internal-API call, ending when the response body is drained.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	op, execID := classifyCall(req)
	job := telemetry.RequestID(req.Context())
	t.tr.mu.Lock()
	if job != "" && execID != "" {
		t.tr.execJob[execID] = job
	} else if job == "" && execID != "" {
		job = t.tr.execJob[execID]
	}
	t.tr.mu.Unlock()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.record(job, op, start, time.Now(), 0, req.URL.Host+" error")
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.record(job, op, start, time.Now(), n, req.URL.Host)
	}}
	return resp, nil
}

// classifyCall names a dispatcher HTTP call by operation.
func classifyCall(req *http.Request) (op, execID string) {
	p := req.URL.Path
	const exec = "/internal/v1/execute"
	switch {
	case req.Method == http.MethodPost && p == exec:
		return "cluster.start", ""
	case strings.HasPrefix(p, exec+"/") && strings.HasSuffix(p, "/checkpoint"):
		return "cluster.checkpoint", strings.TrimSuffix(strings.TrimPrefix(p, exec+"/"), "/checkpoint")
	case strings.HasPrefix(p, exec+"/") && req.Method == http.MethodDelete:
		return "cluster.release", strings.TrimPrefix(p, exec+"/")
	case strings.HasPrefix(p, exec+"/"):
		return "cluster.poll", strings.TrimPrefix(p, exec+"/")
	case p == "/v1/healthz":
		return "cluster.probe", ""
	}
	return "cluster.other", ""
}

// countingBody counts the bytes read and reports once, at EOF or Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// jobTrace is one job's spans after analysis.
type jobTrace struct {
	Latency float64
	// Self is the job's latency partitioned by layer: every instant of
	// the root span is charged to the deepest span active then (ties go
	// to the latest started), so the layer self times sum to the
	// latency exactly and overlapping concurrent work is not counted
	// twice.
	Self map[string]float64
}

// analyse resolves span parents, translates engine job ids to job keys
// and partitions every job's latency across layers.
func analyse(spans []span, engineIDs map[string]string) ([]span, map[string]*jobTrace) {
	byJob := map[string][]int{}
	for i := range spans {
		if k, ok := engineIDs[spans[i].Job]; ok {
			spans[i].Job = k
		}
		byJob[spans[i].Job] = append(byJob[spans[i].Job], i)
	}
	out := map[string]*jobTrace{}
	for job, idx := range byJob {
		var root *span
		for _, i := range idx {
			if spans[i].Name == "client.job" {
				root = &spans[i]
			}
		}
		if job == "" || root == nil {
			continue
		}
		// Parent: the latest-starting span of the parent kind that
		// contains the child's start.
		for _, i := range idx {
			want, ok := parentOf[kind(spans[i].Name)]
			if !ok {
				continue
			}
			best := -1
			for _, j := range idx {
				if spans[j].Name == want && spans[j].Start <= spans[i].Start+1e-9 &&
					(best < 0 || spans[j].Start > spans[best].Start) {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
			}
		}
		out[job] = partition(spans, idx, root)
	}
	return spans, out
}

// partition charges every instant of the root span to the deepest
// active span.
func partition(spans []span, idx []int, root *span) *jobTrace {
	jt := &jobTrace{Latency: root.End - root.Start, Self: map[string]float64{}}
	cuts := []float64{root.Start, root.End}
	for _, i := range idx {
		s := spans[i]
		for _, c := range []float64{s.Start, s.End} {
			if c > root.Start && c < root.End {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Float64s(cuts)
	for c := 1; c < len(cuts); c++ {
		a, b := cuts[c-1], cuts[c]
		if b <= a {
			continue
		}
		mid := (a + b) / 2
		best, bestDepth := -1, -1
		for _, i := range idx {
			s := spans[i]
			if s.Start > mid || s.End < mid {
				continue
			}
			d := depth(kind(s.Name))
			if d > bestDepth || d == bestDepth && s.Start > spans[best].Start {
				best, bestDepth = i, d
			}
		}
		l := "client"
		if best >= 0 {
			l = layer(spans[best])
		}
		jt.Self[l] += b - a
	}
	return jt
}
