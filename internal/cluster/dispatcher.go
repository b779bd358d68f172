package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/telemetry"
)

// DispatcherOptions tune job routing.
type DispatcherOptions struct {
	// Replicas is the ring's virtual-node count per worker (default
	// 128).
	Replicas int
	// Health configures the liveness prober.
	Health HealthOptions
	// PollInterval is the longest a worker holds each RemoteExecutor's
	// status poll (see engine.RemoteExecutor.PollInterval).
	PollInterval time.Duration
	// Client is the HTTP client RemoteExecutors use (default: one
	// shared client with a 15s per-request timeout).
	Client *http.Client
	// ExecutorFor overrides how a worker name becomes an Executor —
	// injectable for tests that want in-process fakes instead of HTTP.
	ExecutorFor func(node string) engine.Executor
	// Metrics is the registry for the dispatcher's instruments (per-
	// worker dispatch counters, failovers, retries, ring size/churn) and
	// — unless Health.Metrics is set separately — the health prober's.
	// nil gets a private registry.
	Metrics *telemetry.Registry
	// InternalSecret authenticates the dispatcher's RemoteExecutors to
	// workers started with -internal.secret (sent in the
	// X-Reds-Internal-Secret header on every internal-API call). Empty
	// sends no header. Ignored when ExecutorFor is overridden.
	InternalSecret string
}

// Dispatcher implements engine.Executor across a fleet of workers: each
// request is consistent-hash-routed by its ShardKey (the dataset
// content hash) to a worker, so one dataset's metamodel cache stays hot
// on one process. When the chosen worker is dead — known from the
// health prober, or discovered when the execution fails with
// engine.ErrUnavailable — the dispatcher walks the key's deterministic
// candidate list to the next worker and re-runs the request there,
// forwarding the latest execution checkpoint the failed worker reported
// so finished stages are not recomputed. Errors that are verdicts about
// the request itself (validation, pipeline failures) are returned
// as-is, never re-routed. The worker set is dynamic: AddWorker and
// RemoveWorker rebalance the ring at runtime.
type Dispatcher struct {
	ring        *Ring
	health      *Health
	executorFor func(node string) engine.Executor

	// mu guards the per-worker maps — the worker set changes at runtime
	// via AddWorker/RemoveWorker while Execute reads it.
	mu    sync.Mutex
	execs map[string]engine.Executor
	// The dispatch counters ARE the telemetry instruments
	// (reds_cluster_dispatches_total{worker}, _failovers_total); Stats()
	// reads them back, so the gateway healthz and /metrics cannot
	// drift.
	dispatched  map[string]*telemetry.Counter
	dispatchVec *telemetry.CounterVec
	failovers   *telemetry.Counter
}

// NewDispatcher builds a dispatcher over the worker base URLs.
func NewDispatcher(workers []string, opts DispatcherOptions) (*Dispatcher, error) {
	if len(workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	executorFor := opts.ExecutorFor
	if executorFor == nil {
		retries := reg.CounterVec("reds_cluster_retry_attempts_total",
			"Per-attempt HTTP retries against workers (op = start|poll).", "worker", "op")
		executorFor = func(node string) engine.Executor {
			return &engine.RemoteExecutor{
				BaseURL:        node,
				Client:         client,
				PollInterval:   opts.PollInterval,
				OnRetry:        func(op string) { retries.With(node, op).Inc() },
				InternalSecret: opts.InternalSecret,
			}
		}
	}
	if opts.Health.Client == nil {
		opts.Health.Client = client
	}
	if opts.Health.Metrics == nil {
		opts.Health.Metrics = reg
	}
	execs := make(map[string]engine.Executor, len(workers))
	dispatchVec := reg.CounterVec("reds_cluster_dispatches_total",
		"Executions dispatched per worker (failover re-routes count on the new worker too).", "worker")
	dispatched := make(map[string]*telemetry.Counter, len(workers))
	for _, w := range workers {
		if _, dup := execs[w]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %s", w)
		}
		execs[w] = executorFor(w)
		dispatched[w] = dispatchVec.With(w)
	}
	ring := NewRing(opts.Replicas, workers...)
	// The initial Adds in NewRing are construction, not churn; expose
	// only set changes after this baseline.
	baseline := ring.Mutations()
	reg.CounterFunc("reds_cluster_ring_changes_total",
		"Consistent-hash ring node additions and removals since startup.",
		func() float64 { return float64(ring.Mutations() - baseline) })
	reg.GaugeFunc("reds_cluster_ring_size_workers",
		"Workers currently on the consistent-hash ring.",
		func() float64 { return float64(ring.Len()) })
	return &Dispatcher{
		ring:        ring,
		health:      NewHealth(workers, opts.Health),
		executorFor: executorFor,
		execs:       execs,
		dispatched:  dispatched,
		dispatchVec: dispatchVec,
		failovers: reg.Counter("reds_cluster_failovers_total",
			"Executions re-routed to another worker after an unavailable one."),
	}, nil
}

// Close stops the health prober.
func (d *Dispatcher) Close() { d.health.Close() }

// Ring exposes the hash ring (for introspection endpoints).
func (d *Dispatcher) Ring() *Ring { return d.ring }

// Health exposes the liveness prober.
func (d *Dispatcher) Health() *Health { return d.health }

// Route returns the worker currently first in line for a key.
func (d *Dispatcher) Route(key string) (string, bool) { return d.ring.Lookup(key) }

// AddWorker registers a worker at runtime: it joins the consistent-hash
// ring (taking over its share of keys), starts being health-probed, and
// becomes dispatchable. Registering an already-known worker fails.
func (d *Dispatcher) AddWorker(node string) error {
	if node == "" {
		return errors.New("cluster: empty worker url")
	}
	d.mu.Lock()
	if _, dup := d.execs[node]; dup {
		d.mu.Unlock()
		return fmt.Errorf("cluster: worker %s already registered", node)
	}
	d.execs[node] = d.executorFor(node)
	d.dispatched[node] = d.dispatchVec.With(node)
	d.mu.Unlock()
	d.health.Add(node)
	d.ring.Add(node)
	return nil
}

// RemoveWorker deregisters a worker: it leaves the ring (its keys
// rebalance onto the survivors), stops being probed, and receives no
// new dispatches. In-flight executions on it are not interrupted; if
// they fail, normal failover applies. Removing the last worker fails —
// a dispatcher with an empty ring could route nothing.
func (d *Dispatcher) RemoveWorker(node string) error {
	d.mu.Lock()
	if _, ok := d.execs[node]; !ok {
		d.mu.Unlock()
		return fmt.Errorf("cluster: unknown worker %s", node)
	}
	if len(d.execs) == 1 {
		d.mu.Unlock()
		return fmt.Errorf("cluster: refusing to remove the last worker %s", node)
	}
	delete(d.execs, node)
	delete(d.dispatched, node)
	d.mu.Unlock()
	d.ring.Remove(node)
	d.health.Remove(node)
	return nil
}

// Workers returns the registered worker URLs in ring-node order.
func (d *Dispatcher) Workers() []string { return d.ring.Nodes() }

// Ready reports whether the first health-probe round has completed —
// the gateway's readiness gate.
func (d *Dispatcher) Ready() bool { return d.health.Ready() }

// Stats returns per-worker dispatch counts and the number of failover
// re-routes so far, read from the same telemetry instruments /metrics
// exposes.
func (d *Dispatcher) Stats() (dispatched map[string]int64, failovers int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.dispatched))
	for k, c := range d.dispatched {
		out[k] = c.Value()
	}
	return out, d.failovers.Value()
}

// executor returns the executor and dispatch counter for a node, or
// nil when the node was removed after the candidate list was computed.
func (d *Dispatcher) executor(node string) (engine.Executor, *telemetry.Counter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.execs[node], d.dispatched[node]
}

// Execute implements engine.Executor with consistent-hash routing and
// checkpointed failover. The candidate walk visits every worker at most
// once, alive workers first in ring order. The dispatcher watches the
// progress stream for execution checkpoints; when an execution is
// re-routed mid-flight, the highest-sequence checkpoint seen so far is
// forwarded with the request, so the next worker resumes after the
// stages the checkpoint proves finished instead of starting over.
func (d *Dispatcher) Execute(ctx context.Context, req engine.Request, onProgress func(engine.Progress)) (*engine.Result, error) {
	key := req.ShardKey()
	cands := d.ring.Candidates(key, d.ring.Len())
	if len(cands) == 0 {
		return nil, fmt.Errorf("cluster: no workers on the ring: %w", engine.ErrUnavailable)
	}
	// Alive candidates keep ring order; dead ones go to the back (still
	// in ring order) rather than being skipped — health is a hint that
	// can be stale in both directions, so a fully-"dead" cluster still
	// gets one optimistic attempt per worker.
	ordered := make([]string, 0, len(cands))
	var dead []string
	for _, c := range cands {
		if d.health.Alive(c) {
			ordered = append(ordered, c)
		} else {
			dead = append(dead, c)
		}
	}
	ordered = append(ordered, dead...)

	// Capture the newest checkpoint from the progress stream so a
	// failover can hand it to the next candidate. The mutex covers the
	// executors that report progress from worker goroutines.
	var cpMu sync.Mutex
	latest := req.Checkpoint // a checkpoint already on the request (engine restart) seeds the chain
	observe := func(p engine.Progress) {
		if cp := p.Checkpoint; cp != nil {
			cpMu.Lock()
			if latest == nil || cp.Seq > latest.Seq {
				latest = cp
			}
			cpMu.Unlock()
		}
		if onProgress != nil {
			onProgress(p)
		}
	}

	var lastErr error
	attempts := 0
	for _, node := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ex, counter := d.executor(node)
		if ex == nil { // removed since the candidate list was computed
			continue
		}
		counter.Inc()
		if attempts > 0 {
			d.failovers.Inc()
		}
		attempts++

		attemptReq := req
		cpMu.Lock()
		attemptReq.Checkpoint = latest
		cpMu.Unlock()

		res, err := ex.Execute(ctx, attemptReq, observe)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, engine.ErrUnavailable) {
			return nil, err
		}
		d.health.MarkDead(node, err)
		lastErr = err
	}
	if attempts == 0 {
		return nil, fmt.Errorf("cluster: no dispatchable workers for key %.12s…: %w", key, engine.ErrUnavailable)
	}
	return nil, fmt.Errorf("cluster: all %d workers failed for key %.12s…: %w", attempts, key, lastErr)
}
