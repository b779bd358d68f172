package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine"
)

// sleepExecutor stands in for a pipeline that runs for a fixed time.
type sleepExecutor time.Duration

func (d sleepExecutor) Execute(ctx context.Context, _ engine.Request, _ func(engine.Progress)) (*engine.Result, error) {
	select {
	case <-time.After(time.Duration(d)):
		return &engine.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// startSleepWorker serves the internal execution API over a
// sleepExecutor, plus the healthz the prober reads.
func startSleepWorker(t *testing.T, d time.Duration) string {
	t.Helper()
	es := engine.NewExecServer(sleepExecutor(d), engine.ExecServerOptions{})
	mux := http.NewServeMux()
	mux.Handle("/internal/", es.Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte(`{"ok":true}`)) })
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		es.Close()
		srv.Close()
	})
	return srv.URL
}

// A PollInterval past the per-attempt deadline (or the client timeout)
// must not turn a healthy held poll into a retried "transient" error and
// then a false failover: the gateway clamps the hold below both.
func TestPollHoldStaysBelowAttemptDeadline(t *testing.T) {
	for name, tune := range map[string]func(*engine.RemoteExecutor){
		"attempt timeout": func(r *engine.RemoteExecutor) { r.AttemptTimeout = 300 * time.Millisecond },
		"client timeout":  func(r *engine.RemoteExecutor) { r.Client = &http.Client{Timeout: 300 * time.Millisecond} },
	} {
		t.Run(name, func(t *testing.T) {
			workers := []string{startSleepWorker(t, time.Second), startSleepWorker(t, time.Second)}
			var retries atomic.Int64
			disp, err := NewDispatcher(workers, DispatcherOptions{
				Health: HealthOptions{Interval: time.Second, Timeout: time.Second},
				ExecutorFor: func(node string) engine.Executor {
					r := &engine.RemoteExecutor{
						BaseURL:      node,
						PollInterval: 5 * time.Second,
						OnRetry:      func(string) { retries.Add(1) },
					}
					tune(r)
					return r
				},
			})
			if err != nil {
				t.Fatalf("dispatcher: %v", err)
			}
			t.Cleanup(disp.Close)
			if _, err := disp.Execute(context.Background(), engine.Request{Function: "morris", N: 60, L: 300}, nil); err != nil {
				t.Fatalf("execute: %v", err)
			}
			if _, failovers := disp.Stats(); failovers != 0 || retries.Load() != 0 {
				t.Fatalf("%d retries and %d failovers for a healthy execution, want 0 and 0", retries.Load(), failovers)
			}
		})
	}
}
