package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/telemetry"
)

// Gateway fleet settings: the binaries' flag defaults, plus the
// benchmark client's own poll cadence (part of the workload).
const (
	fleetWorkers     = 2
	gatewayPoll      = 150 * time.Millisecond // redsgateway -poll.interval
	gatewayClientTO  = 15 * time.Second       // redsgateway's dispatcher client
	clientPollEvery  = 50 * time.Millisecond
	benchToken       = "e2ebench-token"
	benchSecret      = "e2ebench-internal-secret"
	gatewayQueueSize = 256 // redsgateway -queue
)

// outcome is what the client observed for one submission.
type outcome struct {
	Job     job
	Key     string
	EngID   string
	Submit  time.Time // client starts the submission
	Done    time.Time // client learns the terminal state
	Status  engine.Status
	Err     string
	Result  *engine.Result
	Snap    engine.Snapshot
	Polls   int
	Digest  string
	Gate    string // empty when the job passed every check
	SubmitS float64
	ResultS float64
}

// fleet is one set-up of the system under test plus its client.
type fleet struct {
	// run submits one job and waits for its terminal state, closed-loop.
	run func(j job, key string) outcome
	// regs are the telemetry registries the program's instruments record
	// into: one per process of the deployment the fleet stands for.
	regs []*telemetry.Registry
	// engines expose Engine.{Cache,LabelCache,RulesetCache}Stats: the
	// in-process engine, or each gateway worker's engine.
	engines []*engine.Engine
	locals  []*engine.LocalExecutor
	tr      *tracer
	close   func()
}

// quietLogger formats log records like the binaries do, then drops them.
func quietLogger() *slog.Logger {
	l, _ := telemetry.NewLogger(io.Discard, "info", "json")
	return l
}

// startLocal boots paper_cold's and thirdparty_sd_mix's system: one
// in-process Engine over a LocalExecutor, both at their defaults.
func startLocal(tr *tracer) (*fleet, error) {
	reg := telemetry.NewRegistry()
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{Metrics: reg})
	var exec engine.Executor = local
	var st store.Store = store.NewMem()
	if tr != nil {
		exec = &tracedExecutor{inner: local, name: "executor.local", stages: true, tr: tr}
		st = &tracedStore{inner: st, tr: tr}
	}
	eng, err := engine.New(engine.Options{Executor: exec, Store: st, Metrics: reg, Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	f := &fleet{regs: []*telemetry.Registry{reg}, engines: []*engine.Engine{eng}, locals: []*engine.LocalExecutor{local}, tr: tr, close: eng.Close}
	f.run = func(j job, key string) outcome {
		o := outcome{Job: j, Key: key}
		done := make(chan struct{})
		o.Submit = time.Now()
		id, err := eng.SubmitWith(j.Req, engine.SubmitOptions{RequestID: key, OnDone: func() { close(done) }})
		subEnd := time.Now()
		o.SubmitS = subEnd.Sub(o.Submit).Seconds()
		tr.record(key, "api.submit", o.Submit, subEnd, 0, "")
		if err != nil {
			o.Done, o.Status, o.Err = subEnd, engine.StatusFailed, err.Error()
			return o
		}
		o.EngID = string(id)
		<-done
		o.Done = time.Now()
		tr.record(key, "client.job", o.Submit, o.Done, 0, "")
		o.Snap, _ = eng.Job(id)
		o.Status, o.Err = o.Snap.Status, o.Snap.Error
		rs := time.Now()
		if res, err := eng.Result(id); err == nil {
			o.Result = res
		}
		o.ResultS = time.Since(rs).Seconds()
		return o
	}
	return f, nil
}

// worker is one in-process redsserver stand-in wired like the binary:
// LocalExecutor shared by the worker's engine and its ExecServer, the
// internal API guarded by the shared secret, served on loopback.
type worker struct {
	srv   *httptest.Server
	eng   *engine.Engine
	local *engine.LocalExecutor
	es    *engine.ExecServer
	reg   *telemetry.Registry
}

func startWorker(tr *tracer) (*worker, error) {
	reg := telemetry.NewRegistry()
	logger := quietLogger()
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{Metrics: reg})
	var exec engine.Executor = local
	if tr != nil {
		exec = &tracedExecutor{inner: local, name: "executor.worker", stages: true, tr: tr}
	}
	eng, err := engine.New(engine.Options{Executor: exec, Metrics: reg, Logger: logger})
	if err != nil {
		return nil, err
	}
	es := engine.NewExecServer(exec, engine.ExecServerOptions{Metrics: reg, Logger: logger})
	ctrl := admission.New(admission.Options{
		Caps:           admission.Caps{MaxBodyBytes: 64 << 20},
		InternalSecret: benchSecret,
		Metrics:        reg,
		Logger:         logger,
	})
	h := engine.NewHandler(eng, engine.WithMetrics(reg), engine.WithAdmission(ctrl), engine.WithExecutionAPI(es))
	srv := httptest.NewServer(telemetry.Instrument(ctrl.Middleware(h), reg, logger))
	return &worker{srv: srv, eng: eng, local: local, es: es, reg: reg}, nil
}

func (w *worker) stop() {
	w.srv.CloseClientConnections()
	w.srv.Close()
	w.es.Close()
	w.eng.Close()
}

// startGateway boots gateway_fleet's system: redsgateway's wiring (an
// Engine over a cluster.Dispatcher and an FS store, behind admission
// with one bearer token and the internal secret) in front of two
// workers, all on loopback.
func startGateway(tr *tracer, tmpRoot string) (*fleet, error) {
	var workers []*worker
	stopWorkers := func() {
		for _, w := range workers {
			w.stop()
		}
	}
	for i := 0; i < fleetWorkers; i++ {
		w, err := startWorker(tr)
		if err != nil {
			stopWorkers()
			return nil, err
		}
		workers = append(workers, w)
	}
	dir, err := os.MkdirTemp(tmpRoot, "gateway-")
	if err != nil {
		stopWorkers()
		return nil, err
	}
	fail := func(err error) (*fleet, error) {
		stopWorkers()
		os.RemoveAll(dir)
		return nil, err
	}
	tokens := filepath.Join(dir, "tokens.json")
	if err := os.WriteFile(tokens, []byte(`{"tokens":[{"token":"`+benchToken+`","client":"e2ebench","roles":["submit","read"]}]}`), 0o600); err != nil {
		return fail(err)
	}
	tokenStore, err := admission.LoadTokens(tokens)
	if err != nil {
		return fail(err)
	}

	reg := telemetry.NewRegistry()
	logger := quietLogger()
	var transport http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if tr != nil {
		transport = &tracedTransport{inner: transport, tr: tr}
	}
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	disp, err := cluster.NewDispatcher(urls, cluster.DispatcherOptions{
		Replicas:       128,
		PollInterval:   gatewayPoll,
		Client:         &http.Client{Timeout: gatewayClientTO, Transport: transport},
		Metrics:        reg,
		InternalSecret: benchSecret,
		Health:         cluster.HealthOptions{Interval: 2 * time.Second, Timeout: time.Second},
	})
	if err != nil {
		return fail(err)
	}
	fsDir := filepath.Join(dir, "store")
	fs, err := store.OpenFS(fsDir, store.FSOptions{Metrics: reg})
	if err != nil {
		disp.Close()
		return fail(err)
	}
	var st store.Store = fs
	var exec engine.Executor = disp
	if tr != nil {
		ts := &tracedStore{inner: fs, tr: tr, walPath: filepath.Join(fsDir, "wal.jsonl")}
		if fi, err := os.Stat(ts.walPath); err == nil {
			ts.walSize = fi.Size()
		}
		st = ts
		exec = &tracedExecutor{inner: disp, name: "executor.gateway", tr: tr}
	}
	eng, err := engine.New(engine.Options{
		Workers:   2 * fleetWorkers, // redsgateway -dispatch default
		QueueSize: gatewayQueueSize,
		Executor:  exec,
		Store:     st,
		Metrics:   reg,
		Logger:    logger,
	})
	if err != nil {
		fs.Close()
		disp.Close()
		return fail(err)
	}
	ctrl := admission.New(admission.Options{
		Tokens:         tokenStore,
		Caps:           admission.Caps{MaxBodyBytes: 64 << 20},
		InternalSecret: benchSecret,
		Metrics:        reg,
		Logger:         logger,
	})
	gw := httptest.NewServer(telemetry.Instrument(ctrl.Middleware(engine.NewHandler(eng, engine.WithAdmission(ctrl))), reg, logger))

	regs := []*telemetry.Registry{reg}
	var engines []*engine.Engine
	var locals []*engine.LocalExecutor
	for _, w := range workers {
		regs = append(regs, w.reg)
		engines = append(engines, w.eng)
		locals = append(locals, w.local)
	}
	f := &fleet{regs: regs, engines: engines, locals: locals, tr: tr}
	f.close = func() {
		gw.CloseClientConnections()
		gw.Close()
		eng.Close()
		disp.Close()
		stopWorkers()
		os.RemoveAll(dir)
	}
	client := &http.Client{Timeout: time.Minute}
	f.run = func(j job, key string) outcome {
		return runHTTP(client, gw.URL, tr, j, key)
	}
	// Fleet boot ends when the gateway's first probe round has seen the
	// workers (redsgateway's /v1/readyz gate).
	deadline := time.Now().Add(30 * time.Second)
	for !disp.Ready() {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("gateway not ready after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return f, nil
}

// runHTTP is the gateway client: submit, poll the job until it is
// terminal, then fetch the result.
func runHTTP(client *http.Client, base string, tr *tracer, j job, key string) outcome {
	o := outcome{Job: j, Key: key}
	body, err := json.Marshal(j.Req)
	if err != nil {
		o.Status, o.Err = engine.StatusFailed, err.Error()
		return o
	}
	call := func(method, path string, body []byte, out any) (int, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Authorization", "Bearer "+benchToken)
		req.Header.Set(telemetry.RequestIDHeader, key)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if resp.StatusCode/100 != 2 {
			return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
		}
		return resp.StatusCode, json.Unmarshal(raw, out)
	}

	o.Submit = time.Now()
	var created struct {
		ID string `json:"id"`
	}
	_, err = call(http.MethodPost, "/v1/jobs", body, &created)
	subEnd := time.Now()
	o.SubmitS = subEnd.Sub(o.Submit).Seconds()
	tr.record(key, "api.submit", o.Submit, subEnd, int64(len(body)), "")
	if err != nil {
		o.Done, o.Status, o.Err = subEnd, engine.StatusFailed, err.Error()
		return o
	}
	o.EngID = created.ID
	for {
		time.Sleep(clientPollEvery)
		ps := time.Now()
		var snap engine.Snapshot
		_, err := call(http.MethodGet, "/v1/jobs/"+created.ID, nil, &snap)
		pe := time.Now()
		o.Polls++
		tr.record(key, "api.poll", ps, pe, 0, "")
		if err != nil {
			o.Done, o.Status, o.Err = pe, engine.StatusFailed, err.Error()
			return o
		}
		if snap.Status.Terminal() {
			o.Done, o.Snap, o.Status, o.Err = pe, snap, snap.Status, snap.Error
			break
		}
	}
	tr.record(key, "client.job", o.Submit, o.Done, 0, "")
	if o.Status == engine.StatusDone {
		rs := time.Now()
		var res engine.Result
		if _, err := call(http.MethodGet, "/v1/jobs/"+created.ID+"/result", nil, &res); err != nil {
			o.Err = err.Error()
		} else {
			o.Result = &res
		}
		o.ResultS = time.Since(rs).Seconds()
	}
	return o
}
