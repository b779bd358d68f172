package engine

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestBinnedJobIndependentOfGOMAXPROCS: one seeded binned rf job returns
// the same result on one core as on four. Binned tree growth, the
// shared-fold tuning cells, labeling and every SD algorithm fan out by
// GOMAXPROCS; none of them may let the schedule into the result.
// Probability labels on an 8-input function make the result sensitive
// to any change in the forest.
func TestBinnedJobIndependentOfGOMAXPROCS(t *testing.T) {
	req := Request{
		Function:   "borehole",
		N:          300,
		L:          3000,
		Seed:       31,
		ProbLabels: true,
		Tuned:      true,
		TrainMode:  "binned",
		SD:         []string{"prim", "bumping", "bi"},
	}
	run := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return res
	}
	one, four := run(1), run(4)
	if one.Best.TrainMode != "binned" {
		t.Fatalf("train mode = %q, want binned", one.Best.TrainMode)
	}
	if a, b := canonicalResult(t, one), canonicalResult(t, four); a != b {
		t.Fatalf("binned job differs between GOMAXPROCS 1 and 4:\n  1: %s\n  4: %s", a, b)
	}
}

// TestBinnedTrainingEndToEnd runs a real tuned job on the binned fast
// path through the engine: the variant reports mode "binned" with the
// gate's measured quality, its scenario quality lands near the exact
// mode's, and the model cache keeps the two modes strictly apart while
// repeat binned jobs still hit.
func TestBinnedTrainingEndToEnd(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(21)))
	_, exact := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true})
	if exact.Best.TrainMode != "exact" {
		t.Fatalf("default train mode = %q, want exact", exact.Best.TrainMode)
	}
	if exact.Best.TrainQuality != 0 || exact.Best.TrainFallbackReason != "" {
		t.Fatalf("exact mode reports gate artifacts: quality=%v reason=%q",
			exact.Best.TrainQuality, exact.Best.TrainFallbackReason)
	}

	misses := x.CacheStats().Misses
	_, binned := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true, TrainMode: "binned"})
	best := binned.Best
	if best.TrainMode != "binned" {
		t.Fatalf("train mode = %q (fallback %q), want binned", best.TrainMode, best.TrainFallbackReason)
	}
	if best.TrainQuality <= 0 {
		t.Fatalf("binned variant reports no gate quality")
	}
	if best.CacheHit {
		t.Fatalf("binned job hit the exact model cache entry")
	}
	if got := x.CacheStats().Misses; got == misses {
		t.Fatalf("binned job trained no model (misses still %d)", misses)
	}
	if diff := math.Abs(best.WRAcc - exact.Best.WRAcc); diff > 0.1 {
		t.Fatalf("binned WRAcc %.4f vs exact %.4f: diff %.4f > 0.1",
			best.WRAcc, exact.Best.WRAcc, diff)
	}

	// A repeat binned job reuses the binned entry and still reports its
	// mode: the resolution is per request, not per cache entry.
	_, again := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true, TrainMode: "binned"})
	if !again.Best.CacheHit {
		t.Fatalf("repeat binned job missed the model cache")
	}
	if again.Best.TrainMode != "binned" {
		t.Fatalf("repeat binned job reports mode %q, want binned", again.Best.TrainMode)
	}
	if x.TrainFallbacks() != 0 {
		t.Fatalf("train fallbacks = %d, want 0", x.TrainFallbacks())
	}
}

// TestBinnedTrainingForcedFallback sets a quality threshold no gate
// model can reach: the job still succeeds, trains exact, and says why.
func TestBinnedTrainingForcedFallback(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := noisyTestDataset(300, rand.New(rand.NewSource(23)))
	_, res := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 24, TrainMode: "binned", TrainQuality: 0.999})
	best := res.Best
	if best.TrainMode != "exact" {
		t.Fatalf("train mode = %q, want exact after fallback", best.TrainMode)
	}
	if !strings.Contains(best.TrainFallbackReason, "below threshold") {
		t.Fatalf("fallback reason = %q, want a quality-below-threshold explanation", best.TrainFallbackReason)
	}
	if best.TrainQuality <= 0 {
		t.Fatalf("fallback reports no measured gate quality")
	}
	if x.TrainFallbacks() != 1 {
		t.Fatalf("train fallbacks = %d, want 1", x.TrainFallbacks())
	}
}

// TestBinnedTrainingUnsupportedFamily asks for binned training on svm,
// which has no tree growth to bin: the variant trains exact and reports
// the unsupported fallback.
func TestBinnedTrainingUnsupportedFamily(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(200, rand.New(rand.NewSource(25)))
	_, res := runJob(t, e, Request{Dataset: d, L: 1000, Seed: 26, Metamodels: []string{"svm"}, TrainMode: "binned"})
	best := res.Best
	if best.TrainMode != "exact" || best.TrainFallbackReason != "unsupported" {
		t.Fatalf("svm binned resolution = (%q, %q), want (exact, unsupported)",
			best.TrainMode, best.TrainFallbackReason)
	}
	if x.TrainFallbacks() != 1 {
		t.Fatalf("train fallbacks = %d, want 1", x.TrainFallbacks())
	}
}

// TestTrainModeResolveSingleflight resolves one binned key from many
// goroutines at once: the gate model trains once, the forced fallback
// is counted once, and every caller gets the same verdict.
func TestTrainModeResolveSingleflight(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	d := noisyTestDataset(300, rand.New(rand.NewSource(27)))
	req := Request{TrainMode: "binned", TrainQuality: 0.999}

	const callers = 8
	start := make(chan struct{})
	got := make([]trainResolution, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = x.resolveTrainMode(req, "rf", d, d.Hash(), 28)
		}()
	}
	close(start)
	wg.Wait()

	for i, res := range got {
		if res != got[0] || res.mode != "exact" {
			t.Fatalf("caller %d resolved %+v, caller 0 %+v", i, res, got[0])
		}
	}
	if n := x.trainModes.Stats().Misses; n != 1 {
		t.Fatalf("gate trained %d times, want 1", n)
	}
	if n := x.TrainFallbacks(); n != 1 {
		t.Fatalf("train fallbacks = %d, want 1", n)
	}
}

// TestTrainModeValidate pins the request validation of the train-mode
// knobs.
func TestTrainModeValidate(t *testing.T) {
	base := Request{Function: "morris"}
	ok := base
	ok.TrainMode, ok.TrainBins, ok.TrainQuality = "binned", 64, 0.7
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid binned request rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Request){
		"unknown mode":  func(r *Request) { r.TrainMode = "histogram" },
		"bins too low":  func(r *Request) { r.TrainBins = 1 },
		"bins too high": func(r *Request) { r.TrainBins = 257 },
		"quality > 1":   func(r *Request) { r.TrainQuality = 1.5 },
		"quality NaN":   func(r *Request) { r.TrainQuality = math.NaN() },
	} {
		r := base
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}
}
