package metamodel_test

import (
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/rf"
)

// TestCandidateSeedGolden pins the fold-0 candidate seeds of the
// production tuning grids at base seed 1. candidateSeed hashes every
// field of a grid trainer, so adding, removing or renaming a field of
// rf.Trainer, gbt.Trainer or their binned wrappers re-seeds every tuned
// job. This test makes such a change fail loudly: update the goldens
// only together with a note of the re-seed and its measured effect.
func TestCandidateSeedGolden(t *testing.T) {
	grids := []struct {
		name  string
		tuned metamodel.Trainer
		want  []int64
	}{
		{"rf", rf.TunedTrainer(10), []int64{
			-5903667796655338208, -2591717028548341653,
		}},
		{"binned rf", rf.TunedTrainerBinned(10, dataset.DefaultBins), []int64{
			-7564659518467675013, -4782202288828795558,
		}},
		{"xgb", gbt.TunedTrainer(), []int64{
			5972212906977720152, 3885595648280497314, -2988654223624284946, 8072763582823063275,
		}},
		{"binned xgb", gbt.TunedTrainerBinned(dataset.DefaultBins), []int64{
			6823765992552055681, -1381297669135611993, 8849807577109042971, 6917222252151743796,
		}},
	}
	for _, g := range grids {
		grid := g.tuned.(*metamodel.Tuned).Grid
		if len(grid) != len(g.want) {
			t.Fatalf("%s: grid has %d entries, want %d", g.name, len(grid), len(g.want))
		}
		for gi, tr := range grid {
			if got := metamodel.CandidateSeed(1, tr, 0); got != g.want[gi] {
				t.Errorf("%s entry %d (%T%+v): candidate seed %d, want %d", g.name, gi, tr, tr, got, g.want[gi])
			}
		}
	}
}
