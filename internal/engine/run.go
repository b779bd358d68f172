package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
	"github.com/reds-go/reds/internal/svm"
	"github.com/reds-go/reds/internal/telemetry"
)

// variantSeedStride separates the RNG streams of a job's variants.
const variantSeedStride = 1009

// labelSeedOffset derives a metamodel family's pseudo-label sampling
// seed from its training seed. It is not a multiple of (or congruent
// mod) variantSeedStride, so label seeds never collide with any
// family's training seed or any variant's pipeline seed.
const labelSeedOffset = 577

func knownMetamodel(name string) bool {
	switch name {
	case "rf", "xgb", "svm":
		return true
	}
	return false
}

func knownSD(name string) bool {
	switch name {
	case "prim", "bumping", "bi":
		return true
	}
	return false
}

// trainerByName builds the metamodel trainer for one variant. binned
// selects the histogram fast path with the given bin budget (resolved
// upstream — svm never reaches here with binned set).
func trainerByName(name string, m int, tuned, binned bool, bins int) metamodel.Trainer {
	switch name {
	case "xgb":
		if binned {
			if tuned {
				return gbt.TunedTrainerBinned(bins)
			}
			return &gbt.BinnedTrainer{Bins: bins}
		}
		if tuned {
			return gbt.TunedTrainer()
		}
		return &gbt.Trainer{}
	case "svm":
		if tuned {
			return svm.TunedTrainer()
		}
		return &svm.Trainer{}
	default: // "rf"
		if binned {
			if tuned {
				return rf.TunedTrainerBinned(m, bins)
			}
			return &rf.BinnedTrainer{Bins: bins}
		}
		if tuned {
			return rf.TunedTrainer(m)
		}
		return &rf.Trainer{}
	}
}

// sdByName builds the subgroup-discovery stage, handing each algorithm
// the variant's worker budget: peeling fans its per-dimension candidate
// evaluation out, bumping its bootstrap replicas, BI its beam
// refinement candidates.
func sdByName(name string, workers int) sd.Discoverer {
	switch name {
	case "bumping":
		return &prim.Bumping{Workers: workers}
	case "bi":
		return &bi.BI{Workers: workers}
	default: // "prim"
		return &prim.Peeler{Workers: workers}
	}
}

func samplerByName(name string) (sample.Sampler, error) {
	switch name {
	case "", "lhs":
		return sample.LatinHypercube{}, nil
	case "uniform":
		return sample.Uniform{}, nil
	case "halton":
		return &sample.Halton{}, nil
	case "logitnormal":
		return &sample.LogitNormal{}, nil
	case "mixed":
		return &sample.Mixed{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown sampler %q (want lhs, uniform, halton, logitnormal or mixed)", name)
	}
}

type variantSpec struct {
	metamodel string
	sd        string
}

func buildVariants(req Request) []variantSpec {
	mms := req.Metamodels
	if len(mms) == 0 {
		mms = []string{"rf"}
	}
	sds := req.SD
	if len(sds) == 0 {
		sds = []string{"prim"}
	}
	var out []variantSpec
	for _, mm := range mms {
		for _, s := range sds {
			out = append(out, variantSpec{metamodel: mm, sd: s})
		}
	}
	return out
}

// Execute implements Executor: apply the request's wall-clock deadline
// (if any), then run the pipeline. The deadline budget is checkpoint-
// aware — a resumed execution inherits what earlier executions already
// spent (Checkpoint.ElapsedSeconds) — and a trip is reported as
// ErrDeadlineExceeded, distinct from both caller cancellation (the
// parent context ending) and worker unavailability (ErrUnavailable), so
// the engine fails the job instead of re-routing or "canceling" it.
func (x *LocalExecutor) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	if req.DeadlineSeconds <= 0 {
		return x.execute(ctx, req, onProgress)
	}
	budget := req.DeadlineSeconds
	spent := 0.0
	if cp := req.Checkpoint; cp != nil {
		spent = cp.ElapsedSeconds
	}
	if budget-spent <= 0 {
		return nil, fmt.Errorf("engine: %w: earlier executions already spent %.1fs of the %gs budget",
			ErrDeadlineExceeded, spent, budget)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Duration((budget-spent)*float64(time.Second)))
	defer cancel()
	res, err := x.execute(dctx, req, onProgress)
	if err != nil && dctx.Err() != nil && ctx.Err() == nil {
		// The budget ran out (the parent is still alive, so this is not a
		// cancel or shutdown): surface the deadline as the job's failure.
		return nil, fmt.Errorf("engine: %w after %gs (deadline_seconds=%g, %.1fs spent before this execution)",
			ErrDeadlineExceeded, budget-spent, budget, spent)
	}
	return res, err
}

// execute resolves the training data, fans the variant grid out as
// concurrent sub-tasks, and ranks the outcomes.
func (x *LocalExecutor) execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	sink := newProgressSink(onProgress)
	start := time.Now()
	seed := req.effectiveSeed()
	l := req.effectiveL()
	smp, err := samplerByName(req.Sampler)
	if err != nil {
		return nil, err
	}

	var train *dataset.Dataset
	if req.Function != "" {
		f, err := funcs.Get(req.Function)
		if err != nil {
			return nil, err
		}
		sink.update(func(p *Progress) { p.Stage = "simulate" })
		simStart := time.Now()
		train = funcs.Generate(f, req.effectiveN(), smp, rand.New(rand.NewSource(seed)))
		simSecs := time.Since(simStart).Seconds()
		x.stageSeconds.With("simulate", "", "").Observe(simSecs)
		sink.addSpan(StageTiming{Stage: "simulate", Seconds: simSecs})
	} else {
		train = req.Dataset
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hash := train.Hash()

	// A forwarded checkpoint lets this execution reuse an earlier one's
	// work — but only if it was computed from the same training data.
	cp := req.Checkpoint
	if cp != nil {
		if cp.DatasetHash != hash {
			x.mCheckpointRejected.Inc()
			cp = nil
		} else {
			x.mCheckpointResumes.Inc()
			// The earlier execution's closed spans become the head of this
			// execution's trace: the job's final timings show each stage
			// once, whoever ran it.
			sink.preload(cp.Timings)
		}
	}
	ckpt := newCheckpointRecorder(cp, hash, l, x.checkpointBytes, sink)
	finished := make(map[variantSpec]VariantResult)
	if cp != nil {
		for _, vr := range cp.Variants {
			if vr.Error == "" {
				finished[variantSpec{metamodel: vr.Metamodel, sd: vr.SD}] = vr
			}
		}
	}

	variants := buildVariants(req)
	sink.update(func(p *Progress) {
		p.VariantsTotal = len(variants)
		p.LabelTotal = l * len(variants)
	})

	// Training seeds are per metamodel *family*, not per variant, so the
	// SD variants of one family share a single cache entry (the
	// singleflight trains once, concurrently-started siblings wait).
	familySeed := make(map[string]int64)
	for _, v := range variants {
		if _, ok := familySeed[v.metamodel]; !ok {
			familySeed[v.metamodel] = seed + int64(len(familySeed)+1)*variantSeedStride
		}
	}
	// Bound each variant's worker pools (pseudo-labeling and the SD
	// stage alike) so a job's fan-out does not multiply into
	// GOMAXPROCS × variants goroutines.
	labelWorkers := runtime.GOMAXPROCS(0) / len(variants)
	if labelWorkers < 1 {
		labelWorkers = 1
	}

	results := make([]VariantResult, len(variants))
	var wg sync.WaitGroup
	for vi, v := range variants {
		if vr, ok := finished[v]; ok {
			// The checkpoint already carries this variant's result: reuse
			// it verbatim. Its spans are in the preloaded trace; account
			// its full labeling share so the job-level counters add up.
			vr.Resumed = true
			results[vi] = vr
			x.mCheckpointVariantsSkipped.Inc()
			sink.update(func(p *Progress) {
				p.VariantsDone++
				p.LabelDone += l
			})
			continue
		}
		wg.Add(1)
		go func(vi int, v variantSpec) {
			defer wg.Done()
			vr := x.runVariant(ctx, req, sink, train, hash, smp, l, v, variantConfig{
				pipelineSeed: seed + int64(vi+1)*variantSeedStride,
				trainSeed:    familySeed[v.metamodel],
				labelWorkers: labelWorkers,
				checkpoints:  ckpt,
			})
			results[vi] = vr
			if vr.Error == "" {
				ckpt.variantDone(vr)
			}
			sink.update(func(p *Progress) { p.VariantsDone++ })
		}(vi, v)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rankVariants(results)
	if results[0].Error != "" {
		return nil, fmt.Errorf("engine: all %d variants failed; first: %s", len(results), results[0].Error)
	}
	return &Result{
		Best:               results[0],
		Variants:           results,
		TrainN:             train.N(),
		TrainPositiveShare: train.PositiveShare(),
		DatasetHash:        hash,
		ElapsedSeconds:     time.Since(start).Seconds(),
	}, nil
}

// variantConfig carries the per-variant execution parameters:
// pipelineSeed drives the sampler and SD stages (unique per variant),
// trainSeed drives metamodel training (shared across a family so its SD
// variants share one cache entry), labelWorkers bounds the labeling
// pool.
type variantConfig struct {
	pipelineSeed int64
	trainSeed    int64
	labelWorkers int
	// checkpoints records this execution's reusable work and serves the
	// inbound checkpoint's labels for stage skipping.
	checkpoints *checkpointRecorder
}

// runVariant executes one metamodel × SD combination of a request. The
// metamodel is fetched from (or trained into) the executor's cache; the
// pipeline runs under the execution context with progress wired into
// the sink.
func (x *LocalExecutor) runVariant(ctx context.Context, req Request, sink *progressSink, train *dataset.Dataset, hash string, smp sample.Sampler, l int, v variantSpec, cfg variantConfig) VariantResult {
	out := VariantResult{Metamodel: v.metamodel, SD: v.sd}
	// The training mode resolves before the cache key is formed: binned
	// models are approximations and must never be served to (or from) an
	// exact-mode entry, while a binned request that falls back to exact
	// shares the exact entry — its model is the exact model.
	mode := x.resolveTrainMode(req, v.metamodel, train, hash, cfg.trainSeed)
	out.TrainMode = mode.mode
	out.TrainQuality = mode.quality
	out.TrainFallbackReason = mode.fallbackReason
	key := fmt.Sprintf("%s|%s|tuned=%v|seed=%d", hash, v.metamodel, req.Tuned, cfg.trainSeed)
	binned := mode.mode == "binned"
	bins := req.effectiveTrainBins(x.trainBins)
	if binned {
		key += fmt.Sprintf("|mode=binned|bins=%d", bins)
	}
	inner := trainerByName(v.metamodel, train.M(), req.Tuned, binned, bins)
	if binned {
		// The shared-fold tuner can evaluate fold × candidate cells
		// concurrently without changing its outcome; give it the
		// variant's worker budget.
		if tu, ok := inner.(*metamodel.Tuned); ok {
			tu.Workers = cfg.labelWorkers
		}
	}
	trainer := &cachedTrainer{
		cache:        x.cache,
		key:          key,
		seed:         cfg.trainSeed,
		inner:        inner,
		trainSeconds: x.mTrainSeconds,
		family:       v.metamodel,
		mode:         mode.mode,
	}
	// Each stage-entry notification closes the previous stage's span:
	// the span is recorded into the job trace under its variant-
	// qualified name and observed in the stage-latency histogram. A
	// cache hit legitimately closes a ~0s span — the stage really did
	// cost nothing.
	timer := telemetry.NewStageTimer(func(span telemetry.Span) {
		name := span.Name + "/" + v.metamodel
		if span.Name == string(core.StageDiscover) {
			name += "/" + v.sd
		}
		x.stageSeconds.With(span.Name, v.metamodel, v.sd).Observe(span.Seconds)
		sink.addSpan(StageTiming{Stage: name, Seconds: span.Seconds})
	})
	defer timer.Stop()
	var prev atomic.Int64
	hooks := &core.Hooks{
		LabelWorkers: cfg.labelWorkers,
		OnStage: func(s core.Stage) {
			timer.Start(string(s))
			sink.update(func(p *Progress) { p.Stage = string(s) })
		},
		OnLabelProgress: func(done, total int) {
			// Reports may arrive out of order across labeling
			// workers; fold them into a monotone per-variant count
			// so the execution-level sum stays exact.
			for {
				old := prev.Load()
				if int64(done) <= old {
					return
				}
				if prev.CompareAndSwap(old, int64(done)) {
					delta := int(int64(done) - old)
					sink.update(func(p *Progress) { p.LabelDone += delta })
					return
				}
			}
		},
	}
	// The pseudo-label stage is shared: its sampling seed derives from
	// the family's training seed (not the variant's pipeline seed), so
	// every SD variant of one family asks the label cache for the same
	// key and labels once. The cache key extends the model key with
	// everything else that determines the dataset — including which
	// labeling kernel produced it (|kernel=full vs |kernel=distilled):
	// distilled labels are a fidelity-bounded approximation and must
	// never be served to a job that asked for the full ensemble.
	labelSeed := cfg.trainSeed + labelSeedOffset
	baseLabelKey := fmt.Sprintf("%s|sampler=%s|L=%d|lseed=%d|prob=%v",
		trainer.key, req.effectiveSampler(), l, labelSeed, req.ProbLabels)
	var labelHit atomic.Bool
	// resolved is written by LabelStage (which DiscoverContext calls
	// synchronously on this goroutine) and read after it returns.
	var resolved kernelResolution
	r := &core.REDS{
		Metamodel:  trainer,
		Sampler:    smp,
		L:          l,
		SD:         sdByName(v.sd, cfg.labelWorkers),
		ProbLabels: req.ProbLabels,
		LabelStage: func(ctx context.Context, model metamodel.Model, dim int) (*dataset.Dataset, error) {
			// The kernel is resolved here — not at submission — because
			// the distiller needs the trained model. The resolution is
			// cached (ruleset cache) and deterministic per family.
			resolved = x.resolveKernel(req, trainer.key, model, dim, cfg.trainSeed+distillSeedOffset)
			labelKey := baseLabelKey + "|kernel=" + resolved.Kernel
			d, hit, err := x.labels.getOrLabel(labelKey, func() (*dataset.Dataset, error) {
				d, err := core.PseudoLabel(ctx, resolved.model, smp, l, dim, labelSeed, req.ProbLabels, hooks)
				if err != nil {
					return nil, err
				}
				d.Discrete = train.Discrete
				return d, nil
			})
			if err != nil {
				return nil, err
			}
			labelHit.Store(hit)
			if hit {
				// The stage is already done (another variant or an
				// earlier job labeled it): report its full share so the
				// job-level counters still add up.
				hooks.OnLabelProgress(l, l)
			}
			cfg.checkpoints.labelStageDone(v.metamodel, trainer.key, labelKey, d.Y, resolved.LabelReport)
			return d, nil
		},
		Hooks: hooks,
	}
	// Checkpointed labels under an exact cache key let the pipeline skip
	// train/sample/label outright: the key pins the sampler, L and label
	// seed, so SamplePoints rebuilds the very points they label, and the
	// discover stage validates on the real examples, so the metamodel
	// itself is not needed. Label keys are kernel-qualified, so a
	// distilled request tries its distilled key first and falls back to
	// full-kernel labels (always acceptable: full labels are the ground
	// truth the distilled kernel approximates); a full request never
	// resumes from distilled labels. The rebuilt dataset seeds the label
	// cache, so later jobs over the same data (and sibling variants, which
	// share the rebuild) hit it — and a warm worker skips the rebuild.
	resumeKernels := []string{"full"}
	if req.effectiveLabelKernel() == "distilled" {
		resumeKernels = []string{"distilled", "full"}
	}
	for _, kernel := range resumeKernels {
		key := baseLabelKey + "|kernel=" + kernel
		y, rep, ok := cfg.checkpoints.resumeLabels(key)
		if !ok {
			continue
		}
		d, hit, err := x.labels.getOrLabel(key, func() (*dataset.Dataset, error) {
			pts := core.SamplePoints(smp, l, train.M(), labelSeed)
			return &dataset.Dataset{X: pts, Y: y, Discrete: train.Discrete}, nil
		})
		if err != nil {
			continue
		}
		r.Prelabeled = d
		labelHit.Store(hit)
		// The labeling execution's report (kernel, distillation fidelity,
		// rules, fallback reason) travels with the labels, so this variant
		// reports what a run without the failover would have.
		rep.Kernel = kernel
		resolved = kernelResolution{LabelReport: rep}
		hooks.OnLabelProgress(l, l)
		break
	}
	res, err := r.DiscoverContext(ctx, train, train, rand.New(rand.NewSource(cfg.pipelineSeed)))
	timer.Stop() // close the discover span before the metric evaluation below
	out.CacheHit = trainer.hit.Load()
	out.LabelCacheHit = labelHit.Load()
	out.LabelKernel = resolved.Kernel
	out.LabelFidelity = resolved.Fidelity
	out.FallbackReason = resolved.FallbackReason
	out.Ruleset = resolved.Rules
	if err != nil {
		out.Error = err.Error()
		return out
	}
	final := res.Final()
	if final == nil {
		out.Error = "discovery returned an empty trajectory"
		return out
	}
	out.Box = final
	out.Rule = final.String()
	out.Precision, out.Recall = metrics.PrecisionRecall(final, train)
	out.WRAcc = metrics.WRAcc(final, train)
	out.Trajectory = metrics.Trajectory(res, train)
	out.PRAUC = metrics.PRAUC(out.Trajectory)
	return out
}

// rankVariants sorts best-first: successful variants by WRAcc then PR
// AUC on the real examples, failed variants last.
func rankVariants(results []VariantResult) {
	sort.SliceStable(results, func(a, b int) bool {
		ra, rb := &results[a], &results[b]
		if (ra.Error == "") != (rb.Error == "") {
			return ra.Error == ""
		}
		if ra.WRAcc != rb.WRAcc {
			return ra.WRAcc > rb.WRAcc
		}
		return ra.PRAUC > rb.PRAUC
	})
}

// cachedTrainer adapts the engine cache to the metamodel.Trainer
// interface so core.REDS transparently reuses trained models. Training
// runs from its own seed rather than the pipeline RNG: that keeps the
// caller's stream in the same state whether the cache hits or misses,
// so a cached rerun reproduces the uncached run's sampling and SD
// stages exactly.
type cachedTrainer struct {
	cache *modelCache
	key   string
	seed  int64
	inner metamodel.Trainer
	hit   atomic.Bool
	// trainSeconds observes actual training latency (cache misses only)
	// under the variant's family and resolved mode labels.
	trainSeconds *telemetry.HistogramVec
	family, mode string
}

func (c *cachedTrainer) Name() string { return c.inner.Name() }

func (c *cachedTrainer) Train(d *dataset.Dataset, _ *rand.Rand) (metamodel.Model, error) {
	m, hit, err := c.cache.getOrTrain(c.key, func() (metamodel.Model, error) {
		start := time.Now()
		m, err := c.inner.Train(d, rand.New(rand.NewSource(c.seed)))
		if err == nil && c.trainSeconds != nil {
			c.trainSeconds.With(c.family, c.mode).Observe(time.Since(start).Seconds())
		}
		return m, err
	})
	c.hit.Store(hit)
	return m, err
}
