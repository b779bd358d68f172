package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"github.com/reds-go/reds/internal/engine"
)

func sequenceBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var all []job
	for r := 0; r < 3; r++ {
		all = append(all, w.round(r)...)
	}
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := quantile(xs, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("median of 1..9 = %v, want 5 (symmetric weights)", got)
	}
	if got := quantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("quantile of one sample = %v, want it", got)
	}
	// Reference value from an independent implementation.
	if got := quantile(xs, 0.1); math.Abs(got-1.4823815500372266) > 1e-9 {
		t.Errorf("Harrell-Davis p10 of 1..9 = %v, want 1.48238155", got)
	}
	lo, hi := quantile(xs, 0.1), quantile(xs, 0.9)
	if !(lo < 5 && hi > 5 && math.Abs(lo+hi-10) < 1e-9) {
		t.Errorf("p10=%v p90=%v, want symmetric around 5", lo, hi)
	}
}

func TestSequenceDependsOnlyOnSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequenceBytes(t, name, 7), sequenceBytes(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", name)
		}
		if bytes.Equal(a, sequenceBytes(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", name)
		}
	}
}

// tinyWorkload is a small stand-in for the real workloads: the same
// machinery (references, repeats, gate, tracing) at a size a test can
// afford.
func tinyWorkload(gateway bool) *workload {
	w := &workload{Name: "tiny", Gateway: gateway, Shapes: coldShapes[:2], Funcs: []string{"hart3", "f2"}, RoundLen: 4, MinRounds: 1, RoundSeconds: 1}
	w.round = func(r int) []job {
		var out []job
		for k, fn := range []string{"hart3", "f2", "hart3"} {
			sh := coldShapes[k%2]
			req := engine.Request{Function: fn, N: 100, L: 2000, Metamodels: []string{sh.Metamodel}, SD: []string{sh.SD}, Seed: int64(r*10 + k + 1)}
			out = append(out, job{Index: r*4 + k, Round: r, Shape: sh.Name, Function: fn, RepeatOf: -1, Req: req})
		}
		first := out[0]
		first.Index, first.RepeatOf = r*4+3, r*4
		return append(out, first)
	}
	return w
}

func benchmarkNames(t *testing.T) (e2e, layers map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = true
	}
	return e2e, layers
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames requires the emitted metrics to be exactly the listed ones.
func checkNames(t *testing.T, got map[string]metric, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !metricName.MatchString(k) {
			t.Errorf("metric name %q does not match %s", k, metricName)
		}
		if !want[k] {
			t.Errorf("emitted metric %q is not in BENCHMARK.json", k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("BENCHMARK.json metric %q was not emitted", k)
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, _ := benchmarkNames(t)
	rep, err := measure(func() (*workload, error) { return tinyWorkload(false), nil }, 1, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 {
		t.Fatalf("tiny run: correct=%v failed=%d notes=%v", rep.result.Correct, rep.result.Failed, rep.notes)
	}
	checkNames(t, rep.result.Metrics, e2e)
}

// TestTracedLayersAccountForLatency runs the traced gateway path and
// requires the layer self times to add up to the median job's latency,
// with every layer of the chain present.
func TestTracedLayersAccountForLatency(t *testing.T) {
	_, layers := benchmarkNames(t)
	for _, gateway := range []bool{false, true} {
		rep, err := measure(func() (*workload, error) { return tinyWorkload(gateway), nil }, 1, 0.01, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.result.Correct || rep.result.Failed != 0 {
			t.Fatalf("gateway=%v: correct=%v failed=%d notes=%v", gateway, rep.result.Correct, rep.result.Failed, rep.notes)
		}
		m := rep.result.Metrics
		checkNames(t, m, layers)
		if c := m["trace.self_coverage"].Value; math.Abs(c-1) > 1e-6 {
			t.Errorf("gateway=%v: layer self times cover %.6f of the median job latency, want 1", gateway, c)
		}
		want := []string{"engine", "metamodel", "core", "sd"}
		if gateway {
			want = append(want, "api", "cluster", "store")
		}
		for _, l := range want {
			if m["self."+l+"_s"].Value <= 0 {
				t.Errorf("gateway=%v: layer %s has no self time", gateway, l)
			}
		}
		if m["xcheck.disagreements"].Value != 0 {
			t.Errorf("gateway=%v: production instruments disagree: %v", gateway, rep.notes)
		}
	}
}
