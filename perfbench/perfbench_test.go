package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want       float64
		percentile float64
		beyond     int
	}{
		{100, 89, 90, 10},
		{11, 0, 100.0 / 11, 10},
		{25, 14, 60, 10},
		{5, 4, 100, 0}, // too few samples: the maximum, flagged by beyond < 10
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i) // descending, so tailOf must sort
		}
		got := tailOf(xs)
		if got.Value != c.want || got.Beyond != c.beyond || got.N != c.n ||
			got.Percentile < c.percentile-1e-9 || got.Percentile > c.percentile+1e-9 {
			t.Errorf("n=%d: got %+v, want value %v p%v beyond %d", c.n, got, c.want, c.percentile, c.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above the tail, reported %d", c.n, above, got.Beyond)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "exec", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "exec", Start: 30 * ms, End: 60 * ms},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "cache", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 2, Name: "storage", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 100*ms - 50*ms - 10*ms,
		"exec":    30*ms - 5*ms + 30*ms,
		"cache":   30 * ms,
		"storage": 5 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	seen := map[string]bool{}
	check := func(kind string, declared []map[string]any, specs []metricSpec) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(specs))
		}
		printed := map[string]metricSpec{}
		for _, s := range specs {
			printed[s.Name] = s
		}
		for _, m := range declared {
			name, _ := m["name"].(string)
			if !validName.MatchString(name) {
				t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", kind, name)
			}
			if seen[name] {
				t.Errorf("%s: metric name %q is used twice", kind, name)
			}
			seen[name] = true
			s, ok := printed[name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json names %q, which the benchmark does not print", kind, name)
				continue
			}
			if m["unit"] != s.Unit || m["better"] != s.Better {
				t.Errorf("%s: %s is %v/%v in BENCHMARK.json, %s/%s in the benchmark", kind, name, m["unit"], m["better"], s.Unit, s.Better)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestTargetsCoverEveryLayerMetric(t *testing.T) {
	var targets struct {
		ValidationSeed int64 `json:"validation_seed"`
		Workloads      map[string]struct {
			Loads, Bypasses []string
		} `json:"workloads"`
		PerLayer map[string]struct {
			Moves, On []string
		} `json:"per_layer"`
	}
	readJSON(t, "targets.json", &targets)
	if targets.ValidationSeed == 0 {
		t.Error("targets.json names no validation seed")
	}
	e2e := map[string]bool{}
	for _, s := range endToEnd {
		e2e[s.Name] = true
	}
	for _, s := range perLayer {
		tg, ok := targets.PerLayer[s.Name]
		if !ok || len(tg.On) == 0 {
			t.Errorf("targets.json gives no workload for %s", s.Name)
		}
		for _, m := range tg.Moves {
			if !e2e[m] {
				t.Errorf("%s moves %q, which is no end-to-end metric", s.Name, m)
			}
		}
		for _, w := range tg.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s is measured on unknown workload %q", s.Name, w)
			}
		}
	}
	for w := range workloads {
		if _, ok := targets.Workloads[w]; !ok {
			t.Errorf("targets.json does not describe workload %s", w)
		}
	}
}

func TestSeedFixesRequestSequence(t *testing.T) {
	flights := func(seed int64) []int {
		var seq []int
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			seq = append(seq, flightPass(rng)...)
		}
		return seq
	}
	texts := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		var seq []int
		for i := 0; i < 3; i++ {
			seq = append(seq, churnPass(rng, len(churnTexts()))...)
		}
		return seq
	}
	if !reflect.DeepEqual(flights(7), flights(7)) || !reflect.DeepEqual(texts(7), texts(7)) {
		t.Error("one seed gave two request sequences")
	}
	if reflect.DeepEqual(flights(7), flights(8)) || reflect.DeepEqual(texts(7), texts(8)) {
		t.Error("two seeds gave the same request sequence")
	}
	n := len(churnTexts())
	counts := map[int]int{}
	for _, i := range texts(7) {
		counts[i]++
	}
	for i := 0; i < n; i++ {
		if counts[i] != 3*churnUses {
			t.Errorf("three passes dealt text %d %d times, want %d", i, counts[i], 3*churnUses)
		}
	}
	if n != 29 {
		t.Errorf("serve-churn deals %d texts, want 29", n)
	}
}

func TestQError(t *testing.T) {
	for _, c := range []struct {
		est    float64
		actual int64
		want   float64
	}{{10, 10, 1}, {10, 100, 10}, {100, 10, 10}, {0, 0, 1}, {0.2, 5, 5}} {
		if got := qerror(c.est, c.actual); got != c.want {
			t.Errorf("qerror(%v, %d) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
