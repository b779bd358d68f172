package engine

import (
	"errors"
	"fmt"
	"time"

	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/ruleset"
)

// distillSeedOffset derives a family's distillation sampling seed from
// its training seed. Like labelSeedOffset it is chosen to never collide
// (mod variantSeedStride) with training seeds, pipeline seeds or label
// seeds, so the distillation's selection/holdout samples are
// independent of every other seeded stream of the job.
const distillSeedOffset = 7919

// kernelResolution is the outcome of choosing a labeling kernel for
// one variant: what the variant reports about its labels (which kernel
// actually runs and — when a distillation was involved — its measured
// fidelity, exported rules, and the reason it was rejected, if it was)
// and the model that implements the kernel.
type kernelResolution struct {
	LabelReport
	// model is the labeling model: the distilled ruleset.Model, or the
	// parent ensemble itself.
	model metamodel.Model
}

// resolveKernel picks the labeling kernel for one variant. Full-kernel
// requests short-circuit; distilled requests fetch (or compute) the
// distillation from the ruleset cache keyed off the parent model's
// cache key, then gate it behind the fidelity threshold. Every path
// that cannot honor a distilled request counts one fallback and
// returns the full ensemble — a job never fails because distillation
// did, it just labels the expensive way and says so.
func (x *LocalExecutor) resolveKernel(req Request, modelKey string, parent metamodel.Model, dim int, distillSeed int64) kernelResolution {
	if req.effectiveLabelKernel() != "distilled" {
		return kernelResolution{LabelReport{Kernel: "full"}, parent}
	}
	key := fmt.Sprintf("%s|distill|maxrules=%d|dseed=%d", modelKey, req.DistillMaxRules, distillSeed)
	m, _, err := x.rulesets.getOrDistill(key, func() (*ruleset.Model, error) {
		start := time.Now()
		m, err := ruleset.Distill(parent, ruleset.Options{
			Dim:      dim,
			MaxRules: req.DistillMaxRules,
			Seed:     distillSeed,
		})
		if err != nil {
			return nil, err
		}
		// Observed on cache misses only: these instruments describe
		// distillations performed, not lookups.
		st := m.Stats()
		x.mDistillSeconds.Observe(time.Since(start).Seconds())
		x.mDistillRules.Observe(float64(st.Rules))
		x.mDistillFidelity.Observe(st.LabelFidelity)
		return m, nil
	})
	if err != nil {
		x.mDistillFallback.Inc()
		reason := "error: " + err.Error()
		if errors.Is(err, ruleset.ErrNotDistillable) {
			reason = "unsupported"
		}
		return kernelResolution{LabelReport{Kernel: "full", FallbackReason: reason}, parent}
	}
	st := m.Stats()
	if threshold := req.effectiveDistillFidelity(x.distillFidelity); st.LabelFidelity < threshold {
		x.mDistillFallback.Inc()
		return kernelResolution{LabelReport{
			Kernel:         "full",
			Fidelity:       st.LabelFidelity,
			FallbackReason: fmt.Sprintf("fidelity %.4f below threshold %.4g", st.LabelFidelity, threshold),
		}, parent}
	}
	return kernelResolution{LabelReport{
		Kernel:   "distilled",
		Fidelity: st.LabelFidelity,
		Rules:    m.ExportJSON(),
	}, m}
}
