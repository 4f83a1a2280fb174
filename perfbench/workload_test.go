package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The workload generator is a pure function of the seed: the same seed
// gives the same dataset and query sequence, another seed another sequence.
func TestWorkloadDeterminism(t *testing.T) {
	for name, w := range workloads {
		a, b, c := generate(w, 7), generate(w, 7), generate(w, 8)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different dataset digests", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 give the same dataset digest", name)
		}
		sa, sb, sc := sequence(w, a), sequence(w, b), sequence(w, c)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: same seed, different query sequences", name)
		}
		if reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 give the same query sequence", name)
		}
	}
}

// BENCHMARK.json lists exactly the per-layer metrics the traced run emits,
// with the same units.
func TestPerLayerMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(listed, perLayerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v\ndiffers from the traced run's metrics %v", listed, perLayerUnits)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if m := percentile(xs, 99, "ms"); m.Value != nil {
		t.Errorf("p99 of 999 samples has 9 beyond it, want null, got %v", *m.Value)
	}
	xs = append(xs, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010)
	if m := percentile(xs, 99, "ms"); m.Value == nil {
		t.Errorf("p99 of %d samples: unmeasured (%s)", len(xs), m.reason)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := &span{Start: 0, End: 100}
	kids := []*span{
		{Busy: [][2]int64{{10, 30}, {50, 60}}},
		{Busy: [][2]int64{{20, 40}, {90, 120}}},
	}
	// Covered: [10,40] + [50,60] + [90,100] = 30 + 10 + 10.
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
}
