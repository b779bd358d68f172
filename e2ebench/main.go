// Command e2ebench is the repository's end-to-end benchmark. It runs
// REDS jobs through the public engine, cluster and HTTP entry points,
// checks every result, and prints the metrics BENCHMARK.json names.
//
//	bash e2ebench/run.sh --workload paper_cold --seed 1 --seconds 15 --trace 0
//
// Load is closed-loop from two clients (the container's CPU count),
// each waiting for its job's result before submitting the next. A run
// sets the system up three times (setup_s is the median), then submits
// whole rounds of the workload's sequence: as many as fill --seconds at
// the workload's nominal round duration on the reference container.
// With --trace 1 the run measures the workload twice on fresh set-ups,
// first with the benchmark's decorators recording spans and then
// untraced, and prints the per-layer metrics instead of the end-to-end
// ones. Every run logs its jobs to .bench_build/jobs/; a traced run
// writes its spans to .bench_build/traces/.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine"
)

const (
	clients     = 2 // closed-loop clients, = nproc of the reference container
	setupRepeat = 3 // set-ups per run; setup_s is their median
	scratchDir  = ".bench_build"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper_cold, thirdparty_sd_mix or gateway_fleet")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 15, "measured window; the run submits the whole rounds that nominally fill it")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run from the repository root:", err)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	rep, err := measure(func() (*workload, error) { return newWorkload(*name, *seed) }, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setup is one set-up of a workload: inputs, test sets, the booted
// fleet, the single-core reference digests and a finished warm-up job.
type setup struct {
	w     *workload
	tests map[string]*dataset.Dataset
	refs  map[string]string
	f     *fleet
	dur   float64
}

func doSetup(mk func() (*workload, error), seed int64, traced bool, tmpRoot string) (*setup, error) {
	start := time.Now()
	w, err := mk()
	if err != nil {
		return nil, err
	}
	tests, err := testSets(w.Funcs, seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var f *fleet
	if w.Gateway {
		f, err = startGateway(tr, tmpRoot)
	} else {
		f, err = startLocal(tr)
	}
	if err != nil {
		return nil, fmt.Errorf("booting the fleet: %w", err)
	}
	refs, err := references(referenceJobs(w))
	if err != nil {
		f.close()
		return nil, err
	}
	warm := f.run(job{Shape: "warmup", Function: "hart3", RepeatOf: -1, Req: engine.Request{
		Function: "hart3", N: 100, L: 2000, Metamodels: []string{"rf"}, SD: []string{"prim"}, Seed: 4_000_000_000_000,
	}}, "warmup")
	if warm.Status != engine.StatusDone {
		f.close()
		return nil, fmt.Errorf("warm-up job ended %s: %s", warm.Status, warm.Err)
	}
	return &setup{w: w, tests: tests, refs: refs, f: f, dur: time.Since(start).Seconds()}, nil
}

// window is one measured window of closed-loop load.
type window struct {
	outcomes []outcome
	start    time.Time
	end      time.Time
	cpu      float64 // process CPU seconds spent in the window
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	before   snapshot
	after    snapshot
}

// runWindow drives the closed loop: each client takes the next job of
// the sequence and waits for it, until the run's rounds are done. Once
// past its minimum rounds, a run that overruns three windows stops
// early.
func runWindow(s *setup, seconds float64) *window {
	w := s.w
	total := max(w.MinRounds, int(math.Ceil(seconds/w.RoundSeconds))) * w.RoundLen
	var mu sync.Mutex
	next := 0
	rounds := map[int][]job{}
	win := &window{}
	// Start from a collected heap so garbage left by the set-up is not
	// charged to the window.
	runtime.GC()
	win.before = takeSnapshot(s.f)
	runtime.ReadMemStats(&win.mem0)
	cpu0 := cpuSeconds()
	win.start = time.Now()
	take := func() (job, bool) {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(win.start).Seconds()
		r := next / w.RoundLen
		if next == total || r >= w.MinRounds && el >= 3*seconds {
			return job{}, false
		}
		if _, ok := rounds[r]; !ok {
			rounds[r] = w.round(r)
		}
		j := rounds[r][next%w.RoundLen]
		next++
		return j, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := take()
				if !ok {
					return
				}
				o := s.f.run(j, fmt.Sprintf("j%05d", j.Index))
				recordEngineSpans(s.f.tr, o)
				mu.Lock()
				win.outcomes = append(win.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.end = time.Now()
	win.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&win.mem1)
	win.after = takeSnapshot(s.f)
	sort.Slice(win.outcomes, func(a, b int) bool { return win.outcomes[a].Job.Index < win.outcomes[b].Job.Index })
	return win
}

// recordEngineSpans adds the engine's own view of a job, from its
// snapshot: submitted → finished, with the queue wait inside.
func recordEngineSpans(tr *tracer, o outcome) {
	if tr == nil || o.Snap.StartedAt == nil || o.Snap.FinishedAt == nil {
		return
	}
	tr.record(o.Key, "engine.job", o.Snap.SubmittedAt, *o.Snap.FinishedAt, 0, "")
	tr.record(o.Key, "engine.queue_wait", o.Snap.SubmittedAt, *o.Snap.StartedAt, 0, "")
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gateWindow applies the correctness gate to every submission, first
// submissions before their repeats.
func gateWindow(s *setup, win *window) {
	byIndex := map[int]*outcome{}
	for i := range win.outcomes {
		byIndex[win.outcomes[i].Job.Index] = &win.outcomes[i]
	}
	for i := range win.outcomes {
		o := &win.outcomes[i]
		first := ""
		if o.Job.RepeatOf >= 0 {
			if f, ok := byIndex[o.Job.RepeatOf]; ok {
				first = f.Digest
			}
		}
		o.Gate = check(o, s.refs, first)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	result result
	notes  []string
}

// measure runs one benchmark invocation. mk builds the workload; it
// runs once per set-up because generating the inputs is set-up work. A
// traced run measures two windows of half the length: traced, then
// untraced.
func measure(mk func() (*workload, error), seed int64, seconds float64, traced bool) (*report, error) {
	tmpRoot := filepath.Join(scratchDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	var durs []float64
	var refs []map[string]string
	var tracedWin *window
	var tracedSetup, final *setup
	for i := 0; i < setupRepeat; i++ {
		s, err := doSetup(mk, seed, traced && i == setupRepeat-2, tmpRoot)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		durs = append(durs, s.dur)
		refs = append(refs, s.refs)
		switch {
		case i == setupRepeat-1:
			final = s
		case traced && i == setupRepeat-2:
			// The traced half of a traced run comes first, like the only
			// window of an untraced run, so its layer figures describe
			// the same process state; the untraced half follows on a
			// fresh set-up.
			tracedWin = runWindow(s, seconds/2)
			gateWindow(s, tracedWin)
			tracedSetup = s
			s.f.close()
		default:
			s.f.close()
		}
	}
	defer final.f.close()
	if traced {
		seconds /= 2
	}
	win := runWindow(final, seconds)
	gateWindow(final, win)
	untraced := win
	if traced {
		final, win = tracedSetup, tracedWin
	}
	jobsPath := filepath.Join(scratchDir, "jobs", fmt.Sprintf("%s-seed%d-trace%v.jsonl", final.w.Name, seed, traced))
	if err := writeJobs(jobsPath, win); err != nil {
		return nil, fmt.Errorf("writing the job log: %w", err)
	}

	refsAgree := true
	for _, r := range refs[1:] {
		for k, d := range refs[0] {
			if r[k] != d {
				refsAgree = false
			}
		}
	}
	e2e := endToEnd(final, win, durs)
	rep.result = result{Attempted: len(win.outcomes), Metrics: map[string]metric{}}
	hard := 0
	for _, o := range win.outcomes {
		if o.Gate != "" {
			rep.result.Failed++
			if o.Gate != gateRefMismatch {
				hard++
			}
			rep.notes = append(rep.notes, fmt.Sprintf("gate: %s %s (%s, %s): %s", o.Key, o.Job.Shape, o.Job.Function, o.EngID, o.Gate))
		}
	}
	// correct reports whether every job finished with a valid result
	// that repeats reproduce and the set-up references agreed. failed
	// also counts jobs whose result differs from the GOMAXPROCS=1
	// reference: a reproducibility failure, reported without hiding
	// the job's latency.
	rep.result.Correct = hard == 0 && refsAgree && e2e.done > 0
	if !refsAgree {
		rep.notes = append(rep.notes, "gate: reference digests differ between set-ups")
	}
	name := final.w.Name
	rep.notes = append(rep.notes, fmt.Sprintf("samples: workload=%s seed=%d jobs=%d done=%d rounds=%d beyond_p90=%d window_s=%.3f gomaxprocs=%d go=%s",
		name, seed, len(win.outcomes), e2e.done, e2e.rounds, e2e.beyondP90, win.end.Sub(win.start).Seconds(), runtime.GOMAXPROCS(0), runtime.Version()))
	if !traced {
		for k, v := range e2e.metrics {
			rep.result.Metrics[k] = v
		}
		return rep, nil
	}
	layers, notes, err := perLayer(final, win, untraced, name, seed)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, notes...)
	for k, v := range layers {
		rep.result.Metrics[k] = v
	}
	return rep, nil
}

// writeJobs writes one line per submission of the window: what was
// asked, what the client saw and what the gate decided.
func writeJobs(path string, win *window) error {
	recs := make([]map[string]any, 0, len(win.outcomes))
	for _, o := range win.outcomes {
		recs = append(recs, map[string]any{
			"key": o.Key, "index": o.Job.Index, "round": o.Job.Round, "shape": o.Job.Shape,
			"function": o.Job.Function, "repeat_of": o.Job.RepeatOf, "engine_id": o.EngID,
			"status": o.Status, "latency_s": o.Done.Sub(o.Submit).Seconds(),
			"submit_s": o.Submit.Sub(win.start).Seconds(), "digest": o.Digest, "gate": o.Gate,
		})
	}
	return writeJSONLines(path, recs)
}

// writeJSONLines writes one JSON document per line.
func writeJSONLines[T any](path string, recs []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
