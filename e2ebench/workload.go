package main

import (
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/experiment"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/sample"
)

// shape is one request shape: the knobs a job varies besides its data.
type shape struct {
	Name        string
	Metamodel   string
	SD          string
	TrainMode   string
	LabelKernel string
}

var (
	// coldShapes are Fig. 9's RPf/RPx run every way a user can run them:
	// exact training with the full labeling kernel, and the two fast
	// paths (binned training + distilled labeling).
	coldShapes = []shape{
		{Name: "rf-exact-full", Metamodel: "rf", SD: "prim"},
		{Name: "xgb-exact-full", Metamodel: "xgb", SD: "prim"},
		{Name: "rf-binned-distilled", Metamodel: "rf", SD: "prim", TrainMode: "binned", LabelKernel: "distilled"},
		{Name: "xgb-binned-distilled", Metamodel: "xgb", SD: "prim", TrainMode: "binned", LabelKernel: "distilled"},
	}
	// sdShapes are the six single-variant shapes of the third-party mix.
	sdShapes = []shape{
		{Name: "rf-prim", Metamodel: "rf", SD: "prim"},
		{Name: "rf-bi", Metamodel: "rf", SD: "bi"},
		{Name: "rf-bumping", Metamodel: "rf", SD: "bumping"},
		{Name: "xgb-prim", Metamodel: "xgb", SD: "prim"},
		{Name: "xgb-bi", Metamodel: "xgb", SD: "bi"},
		{Name: "xgb-bumping", Metamodel: "xgb", SD: "bumping"},
	}
	// poolFuncs generate the third-party datasets. The pool is fixed so
	// that every seed submits the same mix of input widths (M = 3, 5, 8
	// and 15); the seed draws the data and the order.
	poolFuncs = []string{"hart3", "f7", "borehole", "ellipse"}
)

// Workload sizes, fixed by the workload definitions.
const (
	coldN     = 400
	coldL     = 100000
	poolN     = 1000
	poolL     = 10000
	testN     = 20000
	repeatLag = 2 // a gateway repeat follows this many further first submissions
)

// job is one request of a workload's sequence.
type job struct {
	Index int    `json:"index"`
	Round int    `json:"round"`
	Shape string `json:"shape"`
	// Function names the simulation function behind the data (the test
	// set comes from it).
	Function string `json:"function"`
	// RepeatOf is the index of the first submission of an identical
	// request, or -1.
	RepeatOf int            `json:"repeat_of"`
	Req      engine.Request `json:"request"`
}

// workload describes one benchmark workload and generates its request
// sequence from the seed. The sequence is a series of rounds; every
// round holds the same mix of functions and shapes, so a run of whole
// rounds measures the same mix whatever the seed.
type workload struct {
	Name    string
	Gateway bool
	// Shapes are the request shapes the workload submits.
	Shapes []shape
	// Funcs are the simulation functions behind the data.
	Funcs []string
	// RoundLen is the number of jobs per round.
	RoundLen int
	// MinRounds is the number of rounds a run completes at least.
	MinRounds int
	// RoundSeconds is a round's nominal duration on the reference
	// container (2 CPUs). A run measures a fixed number of rounds sized
	// from --seconds with it, never a number that depends on how fast
	// this run happens to go: the share of cold and warm work then stays
	// the same from run to run.
	RoundSeconds float64
	// round returns round r's jobs (indices from r*RoundLen).
	round func(r int) []job
}

var workloadNames = []string{"paper_cold", "thirdparty_sd_mix", "gateway_fleet"}

// newWorkload builds the named workload for a seed. Everything the
// program receives is derived here, from the seed alone.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "paper_cold":
		return coldWorkload(name, seed, coldShapes, false), nil
	case "gateway_fleet":
		return coldWorkload(name, seed, coldShapes[:2], true), nil
	case "thirdparty_sd_mix":
		return poolWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// jobSeed returns the engine seed of a fresh (function, seed) pair.
// Job seeds are positive and unique per (benchmark seed, index); test
// sets use negative seeds, so the two never meet.
func jobSeed(seed int64, index int) int64 {
	return seed*1_000_000 + int64(index) + 1
}

// testSeed is the seed of a function's held-out test set.
func testSeed(seed int64, fn string) int64 {
	h := int64(0)
	for _, c := range fn {
		h = h*31 + int64(c)
	}
	return -(seed*1_000_003 + h%1_000_003 + 1)
}

func coldRequest(fn string, sh shape, seed int64) engine.Request {
	return engine.Request{
		Function:    fn,
		N:           coldN,
		L:           coldL,
		Metamodels:  []string{sh.Metamodel},
		SD:          []string{sh.SD},
		Seed:        seed,
		Tuned:       true,
		TrainMode:   sh.TrainMode,
		LabelKernel: sh.LabelKernel,
	}
}

// coldWorkload builds paper_cold and gateway_fleet. Round r submits
// every DefaultFuncs function once; function i gets shape (i+r) mod
// len(shapes), so every round has the same functions and shapes and
// every len(shapes) rounds cover all pairs. Each job is a fresh
// (function, seed) pair. With repeats (gateway_fleet) every job is
// submitted a second time, after repeatLag further first submissions.
func coldWorkload(name string, seed int64, shapes []shape, repeats bool) *workload {
	fns := experiment.DefaultFuncs
	w := &workload{Name: name, Gateway: repeats, Shapes: shapes, Funcs: fns, RoundLen: len(fns), MinRounds: 1, RoundSeconds: 6}
	if repeats {
		w.RoundLen, w.RoundSeconds = 2*len(fns), 13
	}
	w.round = func(r int) []job {
		rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
		var firsts []job
		for k, i := range rng.Perm(len(fns)) {
			sh := shapes[(i+r)%len(shapes)]
			firsts = append(firsts, job{Round: r, Shape: sh.Name, Function: fns[i], RepeatOf: -1,
				Req: coldRequest(fns[i], sh, jobSeed(seed, r*len(fns)+k))})
		}
		// order lists first submissions (k) and repeats (-k-1).
		var order []int
		for k := range firsts {
			order = append(order, k)
			if repeats && k >= repeatLag {
				order = append(order, -(k-repeatLag)-1)
			}
		}
		if repeats {
			for k := max(0, len(firsts)-repeatLag); k < len(firsts); k++ {
				order = append(order, -k-1)
			}
		}
		out := make([]job, len(order))
		for p, k := range order {
			idx := r*w.RoundLen + p
			if k >= 0 {
				firsts[k].Index = idx
				out[p] = firsts[k]
				continue
			}
			out[p] = firsts[-k-1]
			out[p].Index, out[p].RepeatOf = idx, firsts[-k-1].Index
		}
		return out
	}
	return w
}

// poolWorkload builds thirdparty_sd_mix: a pool of four inline datasets
// submitted under all six SD shapes, each round (one pass over the 24
// requests) in a seed-shuffled order. The first pass fills the caches;
// later passes repeat its requests.
func poolWorkload(seed int64) *workload {
	pool := make([]*dataset.Dataset, len(poolFuncs))
	for i, fn := range poolFuncs {
		f, err := funcs.Get(fn)
		if err != nil {
			panic(err) // poolFuncs are registry names
		}
		pool[i] = funcs.Generate(f, poolN, sample.LatinHypercube{}, rand.New(rand.NewSource(jobSeed(seed, 900_000+i))))
	}
	per := len(pool) * len(sdShapes)
	w := &workload{Name: "thirdparty_sd_mix", Shapes: sdShapes, Funcs: poolFuncs, RoundLen: per, MinRounds: 2, RoundSeconds: 7}
	order := func(r int) []int { return rand.New(rand.NewSource(seed*7919 + int64(r))).Perm(per) }
	// firstAt[c] is where the first pass submits pool request c.
	firstAt := make([]int, per)
	for k, c := range order(0) {
		firstAt[c] = k
	}
	w.round = func(r int) []job {
		out := make([]job, 0, per)
		for k, c := range order(r) {
			d, sh := c/len(sdShapes), sdShapes[c%len(sdShapes)]
			j := job{Index: r*per + k, Round: r, Shape: sh.Name, Function: poolFuncs[d], RepeatOf: -1}
			if r > 0 {
				j.RepeatOf = firstAt[c]
			}
			j.Req = engine.Request{
				Dataset:    pool[d],
				L:          poolL,
				Metamodels: []string{sh.Metamodel},
				SD:         []string{sh.SD},
				Seed:       jobSeed(seed, 800_000+d),
				Tuned:      true,
			}
			out = append(out, j)
		}
		return out
	}
	return w
}

// testSets draws one held-out test set per function, outside the timed
// window, from seeds disjoint from every job seed.
func testSets(fns []string, seed int64) (map[string]*dataset.Dataset, error) {
	out := make(map[string]*dataset.Dataset, len(fns))
	for _, fn := range fns {
		f, err := funcs.Get(fn)
		if err != nil {
			return nil, err
		}
		out[fn] = funcs.Generate(f, testN, sample.LatinHypercube{}, rand.New(rand.NewSource(testSeed(seed, fn))))
	}
	return out, nil
}
