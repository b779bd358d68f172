// Package core implements REDS — Rule Extraction for Discovering
// Scenarios — the paper's contribution (Algorithm 4). REDS inserts an
// intermediate metamodel into the conventional scenario-discovery
// pipeline: train the metamodel on the few available simulations, sample
// L fresh points from the same input distribution, pseudo-label them with
// the metamodel, and hand the enlarged dataset to a conventional
// subgroup-discovery algorithm.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

// Stage identifies one step of the REDS pipeline for progress reporting.
type Stage string

// The pipeline stages, in execution order.
const (
	StageTrain    Stage = "train"    // fit the metamodel (Algorithm 4, line 2)
	StageSample   Stage = "sample"   // draw the L fresh points (line 3)
	StageLabel    Stage = "label"    // pseudo-label them (lines 4-6)
	StageDiscover Stage = "discover" // downstream subgroup discovery (line 7)
)

// Hooks let a caller — in practice the concurrent engine — observe a
// running discovery. All callbacks are optional and may be invoked from
// the goroutine executing the pipeline; OnLabelProgress may additionally
// be invoked concurrently from several labeling workers.
type Hooks struct {
	// OnStage fires when a pipeline stage begins.
	OnStage func(s Stage)
	// OnLabelProgress reports pseudo-labeling progress: done of total
	// points labeled so far.
	OnLabelProgress func(done, total int)
	// LabelWorkers caps the pseudo-labeling worker pool (default
	// GOMAXPROCS).
	LabelWorkers int
}

func (h *Hooks) stage(s Stage) {
	if h != nil && h.OnStage != nil {
		h.OnStage(s)
	}
}

// REDS composes a metamodel, a sampler and a subgroup-discovery
// algorithm. It implements sd.Discoverer, so it can be used anywhere a
// conventional algorithm is — including inside its own covering loop.
type REDS struct {
	// Metamodel is the intermediate model AM (Algorithm 4, line 2).
	Metamodel metamodel.Trainer
	// Sampler draws the L new points from p(x) (line 3). Defaults to
	// Latin hypercube sampling over the unit cube.
	Sampler sample.Sampler
	// L is the number of new points (default 10000).
	L int
	// SD is the downstream subgroup-discovery algorithm (line 7).
	SD sd.Discoverer
	// ProbLabels selects the modified REDS of Section 6.1: pseudo-labels
	// are the raw metamodel probabilities f_am(x) in [0,1] instead of
	// thresholded {0,1} values (the "p" suffix of Section 8.2).
	ProbLabels bool
	// ValidateOnPseudo makes the downstream algorithm validate (stop
	// rule and final-box selection) on the pseudo-labeled dataset
	// instead of the original simulated examples. Off by default: the
	// paper's D_val = D convention uses real data, which keeps the
	// selected box comparable to conventional PRIM's. Exposed for the
	// ablation study (redsbench -exp ablation).
	ValidateOnPseudo bool
	// LabelStage, when non-nil, replaces the sample and label stages
	// (Algorithm 4, lines 3-6): it must return the pseudo-labeled
	// dataset mined downstream, with dim-wide rows and the Discrete
	// mask already set. The engine uses this seam to share one
	// pseudo-labeled dataset across the variants of a job and to serve
	// it from its byte-weighted cache; the returned dataset may
	// therefore be shared and must be treated as immutable. When set,
	// the pipeline RNG is not consumed by sampling — the stage owns its
	// own seeding.
	LabelStage func(ctx context.Context, model metamodel.Model, dim int) (*dataset.Dataset, error)
	// Prelabeled, when non-nil, is a pseudo-labeled dataset Dnew computed
	// by an earlier execution: the train, sample and label stages (and
	// their hooks) are skipped entirely and the pipeline goes straight to
	// subgroup discovery on it. The engine uses this seam to resume a
	// failed-over job from a checkpoint on a cold worker without
	// retraining the metamodel — the discover stage only needs Dnew and
	// the real validation data. The dataset may be shared across variants
	// and must be treated as immutable. Metamodel and LabelStage are
	// ignored when set.
	Prelabeled *dataset.Dataset
	// Hooks observe the pipeline (stage transitions, labeling
	// progress). Nil means no observation.
	Hooks *Hooks
}

// checkTrain validates the shape of a training set before the pipeline
// touches it: without it, a dataset with rows but zero input columns (or
// ragged rows) sails through training and makes the sampler emit
// zero-width points, which fails far downstream with an opaque message.
func checkTrain(train *dataset.Dataset) error {
	if train.N() == 0 {
		return fmt.Errorf("core: empty training data")
	}
	m := train.M()
	if m == 0 {
		return fmt.Errorf("core: training data has %d rows but zero input columns", train.N())
	}
	for i, row := range train.X {
		if len(row) != m {
			return fmt.Errorf("core: malformed training data: row %d has %d columns, want %d", i, len(row), m)
		}
	}
	if len(train.Y) != train.N() {
		return fmt.Errorf("core: malformed training data: %d rows but %d labels", train.N(), len(train.Y))
	}
	return nil
}

// Discover implements sd.Discoverer: it runs Algorithm 4 on the train
// data. The downstream algorithm mines the pseudo-labeled dataset Dnew,
// but its validation set — used for the support-floor stop rule and the
// final-box selection of Algorithm 1 — is the provided val set of
// original simulated examples (the paper's D_val = D convention, with D
// the real data). Validating on real labels keeps REDS's selected box
// directly comparable to conventional PRIM's and prevents the peel from
// drilling into artifacts of the metamodel. When val is nil, train
// doubles as the validation set.
func (r *REDS) Discover(train, val *dataset.Dataset, rng *rand.Rand) (*sd.Result, error) {
	return r.DiscoverContext(context.Background(), train, val, rng)
}

// DiscoverContext is Discover with cooperative cancellation: the pipeline
// checks ctx between stages and while pseudo-labeling, and returns
// ctx.Err() once it fires. Progress is reported through r.Hooks.
func (r *REDS) DiscoverContext(ctx context.Context, train, val *dataset.Dataset, rng *rand.Rand) (*sd.Result, error) {
	if r.SD == nil || (r.Metamodel == nil && r.Prelabeled == nil) {
		return nil, fmt.Errorf("core: REDS needs both a metamodel and an SD algorithm")
	}
	if err := checkTrain(train); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: REDS requires an RNG")
	}
	l := r.L
	if l == 0 {
		l = 10000
	}
	smp := r.Sampler
	if smp == nil {
		smp = sample.LatinHypercube{}
	}

	var dnew *dataset.Dataset
	var err error
	if r.Prelabeled != nil {
		dnew = r.Prelabeled
	} else {
		dnew, err = r.trainAndLabel(ctx, train, rng, l, smp)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case r.ValidateOnPseudo:
		val = dnew
	case val == nil:
		val = train
	}
	r.Hooks.stage(StageDiscover)
	res, err := r.SD.Discover(dnew, val, rng)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// trainAndLabel runs the train, sample and label stages (Algorithm 4,
// lines 2-6) and returns the pseudo-labeled dataset Dnew.
func (r *REDS) trainAndLabel(ctx context.Context, train *dataset.Dataset, rng *rand.Rand, l int, smp sample.Sampler) (*dataset.Dataset, error) {
	r.Hooks.stage(StageTrain)
	model, err := r.Metamodel.Train(train, rng)
	if err != nil {
		return nil, fmt.Errorf("core: training metamodel %s: %w", r.Metamodel.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var dnew *dataset.Dataset
	if r.LabelStage != nil {
		// The stage owns both sampling and labeling; it reports its own
		// labeling progress through whatever hooks its creator wired in.
		r.Hooks.stage(StageSample)
		r.Hooks.stage(StageLabel)
		dnew, err = r.LabelStage(ctx, model, train.M())
		if err != nil {
			return nil, err
		}
	} else {
		r.Hooks.stage(StageSample)
		pts := smp.Sample(l, train.M(), rng)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.Hooks.stage(StageLabel)
		dnew, err = r.labelPointsCtx(ctx, model, pts)
		if err != nil {
			return nil, err
		}
		dnew.Discrete = train.Discrete
	}
	return dnew, nil
}

// DiscoverSemiSupervised runs REDS in the semi-supervised setting of
// Section 6.1/9.4: instead of sampling fresh points, the provided
// unlabeled pool (drawn from the same p(x) as the training data) is
// pseudo-labeled and mined.
func (r *REDS) DiscoverSemiSupervised(train *dataset.Dataset, pool [][]float64, rng *rand.Rand) (*sd.Result, error) {
	if r.Metamodel == nil || r.SD == nil {
		return nil, fmt.Errorf("core: REDS needs both a metamodel and an SD algorithm")
	}
	if err := checkTrain(train); err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: empty unlabeled pool")
	}
	for i, row := range pool {
		if len(row) != train.M() {
			return nil, fmt.Errorf("core: malformed pool: row %d has %d columns, want %d", i, len(row), train.M())
		}
	}
	model, err := r.Metamodel.Train(train, rng)
	if err != nil {
		return nil, fmt.Errorf("core: training metamodel %s: %w", r.Metamodel.Name(), err)
	}
	dnew, err := r.labelPointsCtx(context.Background(), model, pool)
	if err != nil {
		return nil, fmt.Errorf("core: pseudo-labeling pool: %w", err)
	}
	dnew.Discrete = train.Discrete
	return r.SD.Discover(dnew, train, rng)
}

// labelPointsCtx applies lines 4-6 of Algorithm 4 with cancellation
// and progress: the points are sharded across a worker pool, ctx is
// checked per chunk, and models with a metamodel.BatchModel fast path
// are evaluated through it.
func (r *REDS) labelPointsCtx(ctx context.Context, model metamodel.Model, pts [][]float64) (*dataset.Dataset, error) {
	opts := metamodel.BatchOptions{}
	if r.Hooks != nil {
		opts.Progress = r.Hooks.OnLabelProgress
		opts.Workers = r.Hooks.LabelWorkers
	}
	var y []float64
	var err error
	if r.ProbLabels {
		y, err = metamodel.PredictProbBatchCtx(ctx, model, pts, opts)
	} else {
		y, err = metamodel.PredictLabelBatchCtx(ctx, model, pts, opts)
	}
	if err != nil {
		return nil, err
	}
	return &dataset.Dataset{X: pts, Y: y}, nil
}

// PseudoLabel runs the sample and label stages (Algorithm 4, lines
// 3-6) as a standalone step: draw l points of width dim from smp,
// seeded independently of any pipeline RNG, and label them with the
// trained model (probabilities when probLabels, hard labels
// otherwise). Factoring the stage out of the pipeline is what makes
// its result shareable — the engine calls it once per metamodel
// family and serves every variant (and cache-hitting repeat job) the
// same dataset. Labeling progress and the worker budget come from
// hooks; ctx cancels between chunks.
func PseudoLabel(ctx context.Context, model metamodel.Model, smp sample.Sampler, l, dim int, seed int64, probLabels bool, hooks *Hooks) (*dataset.Dataset, error) {
	pts := SamplePoints(smp, l, dim, seed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &REDS{ProbLabels: probLabels, Hooks: hooks}
	return r.labelPointsCtx(ctx, model, pts)
}

// SamplePoints is PseudoLabel's sample stage (Algorithm 4, line 3): the
// l points of width dim that smp (Latin hypercube when nil) draws from
// an RNG seeded with seed alone. The sample is a pure function of its
// arguments, so a caller holding only the labels of a PseudoLabel run
// rebuilds that run's Dnew exactly by pairing them with SamplePoints
// under the same arguments.
func SamplePoints(smp sample.Sampler, l, dim int, seed int64) [][]float64 {
	if smp == nil {
		smp = sample.LatinHypercube{}
	}
	return smp.Sample(l, dim, rand.New(rand.NewSource(seed)))
}
