package reds_test

import (
	"math/rand"
	"testing"

	reds "github.com/reds-go/reds"
)

// TestPublicAPIQuickstart exercises the documented minimal pipeline end
// to end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model, err := reds.GetFunction("f2")
	if err != nil {
		t.Fatal(err)
	}
	train := reds.Generate(model, 200, reds.LatinHypercube{}, rng)
	r := &reds.REDS{
		Metamodel: &reds.GradientBoosting{Rounds: 40},
		L:         2000,
		SD:        &reds.PRIM{},
	}
	result, err := r.Discover(train, train, rng)
	if err != nil {
		t.Fatal(err)
	}
	final := result.Final()
	if final == nil || final.String() == "" {
		t.Fatal("no scenario found")
	}
	test := reds.Generate(model, 2000, reds.Uniform{}, rng)
	prec, rec := reds.PrecisionRecall(final, test)
	if prec <= test.PositiveShare() || rec <= 0 {
		t.Errorf("scenario precision %.3f recall %.3f vs base %.3f", prec, rec, test.PositiveShare())
	}
	if auc := reds.PRAUC(reds.TrajectoryCurve(result, test)); auc <= 0 {
		t.Errorf("PR AUC = %g", auc)
	}
}

// TestNegativeCountsRejected asserts that a negative repetition, tree
// or round count is an error rather than a makeslice panic or a
// silently empty ensemble.
func TestNegativeCountsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model, err := reds.GetFunction("f2")
	if err != nil {
		t.Fatal(err)
	}
	d := reds.Generate(model, 100, reds.LatinHypercube{}, rng)
	cases := []struct {
		name string
		run  func() error
	}{
		{"bumping Q", func() error {
			_, err := (&reds.PRIMBumping{Q: -1}).Discover(d, d, rand.New(rand.NewSource(2)))
			return err
		}},
		{"rf NTrees", func() error {
			_, err := (&reds.RandomForest{NTrees: -1}).Train(d, rand.New(rand.NewSource(2)))
			return err
		}},
		{"binned rf NTrees", func() error {
			_, err := (&reds.RandomForestBinned{Trainer: reds.RandomForest{NTrees: -1}}).Train(d, rand.New(rand.NewSource(2)))
			return err
		}},
		{"xgb Rounds", func() error {
			_, err := (&reds.GradientBoosting{Rounds: -1}).Train(d, rand.New(rand.NewSource(2)))
			return err
		}},
		{"binned xgb Rounds", func() error {
			_, err := (&reds.GradientBoostingBinned{Trainer: reds.GradientBoosting{Rounds: -1}}).Train(d, rand.New(rand.NewSource(2)))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil {
				t.Fatal("negative count accepted")
			}
		})
	}
}

func TestDiscoverScenarioDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model, _ := reds.GetFunction("hart3")
	train := reds.Generate(model, 150, reds.LatinHypercube{}, rng)
	res, err := reds.DiscoverScenario(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final() == nil {
		t.Fatal("no scenario")
	}
}

func TestPublicDataSources(t *testing.T) {
	if len(reds.FunctionNames()) < 30 {
		t.Errorf("only %d functions registered", len(reds.FunctionNames()))
	}
	if d := reds.TGLDataset(1); d.N() != 882 || d.M() != 9 {
		t.Error("TGL dataset wrong shape")
	}
	if d := reds.LakeDataset(100, 1); d.N() != 100 || d.M() != 5 {
		t.Error("lake dataset wrong shape")
	}
	if f := reds.DSGC(); f.Dim() != 12 {
		t.Error("dsgc wrong dim")
	}
}

func TestPublicCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model, _ := reds.GetFunction("f8") // two disjoint boxes
	train := reds.Generate(model, 500, reds.LatinHypercube{}, rng)
	results, err := reds.Cover(train, train, &reds.PRIM{}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("covering found %d scenarios, want 2", len(results))
	}
	// The two discovered boxes should not be identical.
	if results[0].Final().Equal(results[1].Final()) {
		t.Error("covering returned the same box twice")
	}
}
