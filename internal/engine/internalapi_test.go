package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestWorker spins up the worker side of the internal execution API
// over a fresh LocalExecutor.
func newTestWorker(t *testing.T) (*httptest.Server, *ExecServer) {
	t.Helper()
	es := NewExecServer(NewLocalExecutor(LocalExecutorOptions{}), ExecServerOptions{})
	srv := httptest.NewServer(es.Handler())
	t.Cleanup(func() {
		srv.Close()
		es.Close()
	})
	return srv, es
}

// normalizeResult zeroes the fields that legitimately differ between
// two runs of the same request (wall-clock time, cache temperature) so
// the rest can be compared byte-for-byte.
func normalizeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	cp := *res
	cp.ElapsedSeconds = 0
	cp.Best.CacheHit = false
	cp.Variants = append([]VariantResult(nil), res.Variants...)
	for i := range cp.Variants {
		cp.Variants[i].CacheHit = false
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return raw
}

func TestRemoteExecutorRoundTrip(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}

	req := Request{Dataset: testDataset(250, rand.New(rand.NewSource(8))), L: 2000, Seed: 4}
	var last Progress
	res, err := remote.Execute(context.Background(), req, func(p Progress) { last = p })
	if err != nil {
		t.Fatalf("remote execute: %v", err)
	}

	// Byte-identical to the single-process path, modulo timing fields.
	local, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	got, want := normalizeResult(t, res), normalizeResult(t, local)
	if string(got) != string(want) {
		t.Fatalf("remote result differs from local:\nremote: %.200s\nlocal:  %.200s", got, want)
	}

	if last.VariantsDone != 1 || last.LabelDone != 2000 {
		t.Fatalf("final progress = %+v, want completed counters", last)
	}
	if started, active := es.Executions(); started != 1 || active != 0 {
		t.Fatalf("executions = %d started / %d active, want 1/0", started, active)
	}
}

func TestRemoteExecutorRequestErrorIsNotUnavailable(t *testing.T) {
	srv, _ := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}
	// Validation failure on the worker: a verdict about the request, so
	// the dispatcher must not re-route it.
	_, err := remote.Execute(context.Background(), Request{Function: "no-such-function"}, nil)
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want a plain request error", err)
	}
	if !strings.Contains(err.Error(), "no-such-function") {
		t.Fatalf("error does not carry the worker's message: %v", err)
	}
}

func TestRemoteExecutorWorkerDown(t *testing.T) {
	srv, _ := newTestWorker(t)
	srv.Close() // worker is gone before the POST
	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}
	_, err := remote.Execute(context.Background(), Request{Function: "morris", L: 500}, nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestRemoteExecutorWorkerDiesMidExecution(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}

	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(9))), L: 400000, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(context.Background(), req, nil)
		done <- err
	}()

	// Wait until the worker accepted the execution, then kill it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if started, _ := es.Executions(); started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never accepted the execution")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.CloseClientConnections()
	srv.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable after worker death", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("execute did not return after worker death")
	}
	es.Close() // stop the orphaned in-process pipeline
}

func TestRemoteExecutorCancellation(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: 5 * time.Millisecond}

	ctx, cancel := context.WithCancel(context.Background())
	// L is large enough to cancel mid-labeling but small enough that the
	// pipeline's non-cancellable sections (training, sampling) stay
	// short even under -race on a loaded machine.
	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(10))), L: 400000, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(ctx, req, nil)
		done <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if started, _ := es.Executions(); started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never accepted the execution")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let the POST response finish so the client is in its polling loop
	// (a cancel mid-POST is a different, also-correct path: the worker
	// orphan is reclaimed by retention GC, which this test is not
	// about).
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("execute did not return after cancel")
	}
	// The DELETE propagated: the worker-side execution stops too (at
	// its next cancellation point — labeling checks every chunk, but
	// training and sampling do not, hence the generous deadline).
	deadline = time.Now().Add(120 * time.Second)
	for {
		if _, active := es.Executions(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker-side execution still active after remote cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExecServerUnknownExecution(t *testing.T) {
	srv, _ := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}
	_, err := remote.poll(context.Background(), "exec-999999", 0, 0)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("poll of unknown id: err = %v, want ErrUnavailable", err)
	}
}

func TestExecServerRetentionSweep(t *testing.T) {
	// Retention must comfortably exceed the polling cadence so the test
	// reliably observes the terminal status before the sweep fires.
	const retention = 2 * time.Second
	es := NewExecServer(NewLocalExecutor(LocalExecutorOptions{}), ExecServerOptions{Retention: retention})
	defer es.Close()
	srv := httptest.NewServer(es.Handler())
	defer srv.Close()
	remote := &RemoteExecutor{BaseURL: srv.URL}

	body, _ := json.Marshal(Request{Function: "morris", N: 60, L: 300})
	id, err := remote.start(context.Background(), body)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	// Wait for the execution to finish, without DELETE-acknowledging.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := remote.poll(context.Background(), id, 0, 0)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if st.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("execution never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Past retention, the entry is garbage-collected on the next sweep.
	time.Sleep(retention + 100*time.Millisecond)
	if _, err := remote.poll(context.Background(), id, 0, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("swept execution still served: err = %v", err)
	}
}

// stepExecutor is an Executor a test drives by hand: each Progress sent
// on progress is published through the callback, and closing finish
// ends the execution with an empty result.
type stepExecutor struct {
	progress chan Progress
	finish   chan struct{}
}

func (x *stepExecutor) Execute(ctx context.Context, _ Request, onProgress func(Progress)) (*Result, error) {
	for {
		select {
		case p := <-x.progress:
			onProgress(p)
		case <-x.finish:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// stepWorker serves the internal execution API over a stepExecutor and
// counts the checkpoint fetches it answers.
type stepWorker struct {
	x           *stepExecutor
	es          *ExecServer
	srv         *httptest.Server
	checkpoints atomic.Int64
}

func newStepWorker(t *testing.T) *stepWorker {
	t.Helper()
	w := &stepWorker{x: &stepExecutor{progress: make(chan Progress), finish: make(chan struct{})}}
	w.es = NewExecServer(w.x, ExecServerOptions{})
	h := w.es.Handler()
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			w.checkpoints.Add(1)
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.es.Close() // releases held polls before the server waits for them
		w.srv.Close()
	})
	return w
}

// start begins an execution and returns its id.
func (w *stepWorker) start(t *testing.T) string {
	t.Helper()
	body, _ := json.Marshal(Request{Function: "morris", N: 60, L: 300})
	id, err := (&RemoteExecutor{BaseURL: w.srv.URL}).start(context.Background(), body)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return id
}

// statusReply is one answered status GET and when it arrived.
type statusReply struct {
	code int
	st   execStatusResponse
	at   time.Time
}

// getStatus GETs an execution's status with the given query string.
func (w *stepWorker) getStatus(t *testing.T, id, query string) statusReply {
	t.Helper()
	resp, err := http.Get(w.srv.URL + "/internal/v1/execute/" + id + query)
	if err != nil {
		t.Errorf("status GET: %v", err)
		return statusReply{}
	}
	defer resp.Body.Close()
	out := statusReply{code: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out.st); err != nil {
			t.Errorf("decoding status: %v", err)
		}
	}
	out.at = time.Now()
	return out
}

// goStatus runs getStatus in the background.
func (w *stepWorker) goStatus(t *testing.T, id, query string) <-chan statusReply {
	ch := make(chan statusReply, 1)
	go func() { ch <- w.getStatus(t, id, query) }()
	return ch
}

// promptly bounds how late a held poll may answer after the event that
// should release it (generous for -race on a loaded machine, yet far
// below the waits the tests hold for).
const promptly = 200 * time.Millisecond

func awaitReply(t *testing.T, ch <-chan statusReply) statusReply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(15 * time.Second):
		t.Fatalf("held status poll never answered")
		return statusReply{}
	}
}

func TestExecStatusLongPollWakesOnCheckpointAndFinish(t *testing.T) {
	w := newStepWorker(t)
	id := w.start(t)
	// Each step releases the polls held since before it, within
	// promptly; several wait on the same execution at once.
	steps := []struct {
		query string
		event func()
		want  Status
		seq   uint64
	}{
		{"?wait=10s&after=0", func() { w.x.progress <- Progress{Stage: "label", Checkpoint: &Checkpoint{Seq: 1}} }, StatusRunning, 1},
		{"?wait=10s&after=1", func() { close(w.x.finish) }, StatusDone, 1},
	}
	for _, step := range steps {
		chs := make([]<-chan statusReply, 3)
		for i := range chs {
			chs[i] = w.goStatus(t, id, step.query)
		}
		time.Sleep(50 * time.Millisecond)
		for _, ch := range chs {
			select {
			case r := <-ch:
				t.Fatalf("poll%s answered before anything changed: %+v", step.query, r.st)
			default:
			}
		}
		fired := time.Now()
		step.event()
		for _, ch := range chs {
			r := awaitReply(t, ch)
			if r.st.Status != step.want || r.st.CheckpointSeq != step.seq {
				t.Fatalf("held poll%s answered %s seq %d, want %s seq %d", step.query, r.st.Status, r.st.CheckpointSeq, step.want, step.seq)
			}
			if lag := r.at.Sub(fired); lag > promptly {
				t.Fatalf("held poll%s answered %v after the event, want < %v", step.query, lag, promptly)
			}
		}
	}
}

func TestExecStatusLongPollTimesOut(t *testing.T) {
	w := newStepWorker(t)
	id := w.start(t)
	const wait = 150 * time.Millisecond
	sent := time.Now()
	ch := w.goStatus(t, id, "?wait=150ms&after=0")
	// A plain progress tick is recorded but does not wake the poll.
	time.Sleep(30 * time.Millisecond)
	w.x.progress <- Progress{Stage: "label", LabelDone: 5, LabelTotal: 300}
	r := awaitReply(t, ch)
	if took := r.at.Sub(sent); took < wait || took > wait+promptly {
		t.Fatalf("idle held poll answered after %v, want %v (+%v)", took, wait, promptly)
	}
	if r.st.Status != StatusRunning || r.st.Progress.LabelDone != 5 {
		t.Fatalf("timed-out poll = %s with progress %+v, want running with the tick", r.st.Status, r.st.Progress)
	}
}

func TestExecStatusLongPollAnswersAtOnce(t *testing.T) {
	w := newStepWorker(t)
	id := w.start(t)
	w.x.progress <- Progress{Stage: "discover", Checkpoint: &Checkpoint{Seq: 2}}

	for _, q := range []string{"?wait=10s&after=1", "", "?after=5"} {
		sent := time.Now()
		r := w.getStatus(t, id, q)
		if took := r.at.Sub(sent); took > promptly {
			t.Fatalf("status%s took %v, want an immediate answer", q, took)
		}
		if r.code != http.StatusOK || r.st.Status != StatusRunning || r.st.CheckpointSeq != 2 {
			t.Fatalf("status%s = %d %s seq %d, want 200 running seq 2", q, r.code, r.st.Status, r.st.CheckpointSeq)
		}
	}
}

func TestExecStatusLongPollBadParams(t *testing.T) {
	w := newStepWorker(t)
	id := w.start(t)
	for _, q := range []string{"?wait=soon", "?wait=-1s", "?wait=1s&after=x", "?wait=1s&after=-1"} {
		if r := w.getStatus(t, id, q); r.code != http.StatusBadRequest {
			t.Fatalf("status%s = %d, want 400", q, r.code)
		}
	}
}

func TestExecStatusLongPollReleasedByClose(t *testing.T) {
	w := newStepWorker(t)
	id := w.start(t)
	ch := w.goStatus(t, id, "?wait=10s&after=0")
	time.Sleep(50 * time.Millisecond)
	closed := time.Now()
	w.es.Close()
	r := awaitReply(t, ch)
	if lag := r.at.Sub(closed); lag > promptly {
		t.Fatalf("held poll answered %v after Close, want < %v", lag, promptly)
	}
	if r.code != http.StatusOK {
		t.Fatalf("held poll released by Close answered %d, want 200", r.code)
	}
}

// A worker from before long polls answers every status GET at once; the
// gateway must still poll it no faster than once a PollInterval.
func TestRemoteExecutorPacesWorkerThatIgnoresWait(t *testing.T) {
	const interval = 50 * time.Millisecond
	var polls atomic.Int64
	begun := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			writeJSON(w, http.StatusAccepted, map[string]string{"id": "exec-old"})
		case http.MethodGet:
			polls.Add(1)
			st := execStatusResponse{ID: "exec-old", Status: StatusRunning}
			if time.Since(begun) > 8*interval {
				st.Status, st.Result = StatusDone, &Result{}
			}
			writeJSON(w, http.StatusOK, st)
		default:
			writeJSON(w, http.StatusOK, map[string]any{})
		}
	}))
	defer srv.Close()

	remote := &RemoteExecutor{BaseURL: srv.URL, PollInterval: interval}
	start := time.Now()
	if _, err := remote.Execute(context.Background(), Request{Function: "morris"}, nil); err != nil {
		t.Fatalf("execute: %v", err)
	}
	elapsed := time.Since(start)
	if n, limit := polls.Load(), int64(elapsed/interval)+1; n > limit {
		t.Fatalf("%d polls in %v, want at most %d (one per %v)", n, elapsed, limit, interval)
	}
}

func TestRemoteExecutorFastExecutionFetchesNoCheckpoint(t *testing.T) {
	w := newStepWorker(t)
	const interval = 2 * time.Second
	remote := &RemoteExecutor{BaseURL: w.srv.URL, PollInterval: interval}
	stages := make(chan string, 8)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := remote.Execute(context.Background(), Request{Function: "morris", N: 60, L: 300}, func(p Progress) {
			stages <- p.Stage
		})
		done <- err
	}()
	// The gateway sees the running execution advertise the label-stage
	// and the only variant's checkpoints, then the execution finishes —
	// long before either seq was advertised for an interval.
	for _, stage := range []string{"label", "discover"} {
		w.x.progress <- Progress{Stage: stage, Checkpoint: &Checkpoint{Seq: uint64(len(stage))}}
		for got := ""; got != stage; {
			select {
			case got = <-stages:
			case <-time.After(15 * time.Second):
				t.Fatalf("gateway never observed stage %s", stage)
			}
		}
	}
	close(w.x.finish)
	if err := <-done; err != nil {
		t.Fatalf("execute: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= interval {
		t.Fatalf("execution took %v, want well under the %v poll interval", elapsed, interval)
	}
	if n := w.checkpoints.Load(); n != 0 {
		t.Fatalf("%d checkpoint fetches for an execution that finished within an interval, want 0", n)
	}
}

func TestRemoteExecutorFetchesCheckpointOfRunningExecution(t *testing.T) {
	w := newStepWorker(t)
	const interval = 50 * time.Millisecond
	remote := &RemoteExecutor{BaseURL: w.srv.URL, PollInterval: interval}
	var mu sync.Mutex
	var seen uint64
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(context.Background(), Request{Function: "morris", N: 60, L: 300}, func(p Progress) {
			if p.Checkpoint != nil {
				mu.Lock()
				seen = p.Checkpoint.Seq
				mu.Unlock()
			}
		})
		done <- err
	}()
	w.x.progress <- Progress{Stage: "discover", Checkpoint: &Checkpoint{Seq: 1, DatasetHash: "h"}}
	time.Sleep(6 * interval)
	close(w.x.finish)
	if err := <-done; err != nil {
		t.Fatalf("execute: %v", err)
	}
	if n := w.checkpoints.Load(); n != 1 {
		t.Fatalf("%d checkpoint fetches for a seq advertised for several intervals, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen != 1 {
		t.Fatalf("progress carried checkpoint seq %d, want the fetched seq 1", seen)
	}
}
