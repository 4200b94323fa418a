package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mqo/internal/algebra"
	"mqo/internal/cost"
	"mqo/internal/physical"
)

func materializedIDs(res *Result) []int {
	ids := make([]int, len(res.Materialized))
	for i, m := range res.Materialized {
		ids[i] = m.ID
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// optimizeTwice optimizes batch with opt on a DAG and again on a rebuilt
// DAG, so the second run shares no state with the first.
func optimizeTwice(t *testing.T, batch []*algebra.Tree, opt Options) (first, second *Result) {
	t.Helper()
	for _, out := range []**Result{&first, &second} {
		pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if *out, err = Optimize(context.Background(), pd, Greedy, opt); err != nil {
			t.Fatal(err)
		}
	}
	return first, second
}

// sameRun reports how two greedy results differ in the materialized IDs
// (pick order included), the cost bits, or the search counters; "" when
// they are identical.
func sameRun(a, b *Result) string {
	switch {
	case !sameIDs(materializedIDs(a), materializedIDs(b)):
		return "materialized sets differ"
	case math.Float64bits(a.Cost) != math.Float64bits(b.Cost):
		return "cost bits differ"
	case a.Stats.BenefitRecomputations != b.Stats.BenefitRecomputations:
		return "benefit recomputations differ"
	case a.Stats.EvalWaves != b.Stats.EvalWaves:
		return "evaluation waves differ"
	}
	return ""
}

// TestParallelGreedyEquivalence is the greedy determinism property: across
// randomized batches, optimizing on a DAG and on a rebuilt DAG must return
// the same materialized set in the same pick order, the same cost bits and
// the same search counters — and never more benefit recomputations than
// the DisableMonotonicity ablation.
func TestParallelGreedyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		batch := randomBatch(rand.New(rand.NewSource(seed)))
		first, second := optimizeTwice(t, batch, Options{})
		if diff := sameRun(first, second); diff != "" {
			t.Errorf("seed %d: rebuilt DAG diverged: %s (set %v vs %v, cost %v vs %v)", seed, diff,
				materializedIDs(first), materializedIDs(second), first.Cost, second.Cost)
		}
		exh, _ := optimizeTwice(t, batch, Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
		if first.Stats.BenefitRecomputations > exh.Stats.BenefitRecomputations {
			t.Errorf("seed %d: monotonic recomputations %d exceed exhaustive %d",
				seed, first.Stats.BenefitRecomputations, exh.Stats.BenefitRecomputations)
		}
	}
}

// TestParallelGreedyVariantsEquivalence covers the exhaustive, space-budget
// and all-sharable loops: each must be deterministic across rebuilt DAGs.
func TestParallelGreedyVariantsEquivalence(t *testing.T) {
	variants := []GreedyOptions{
		{DisableMonotonicity: true},
		{SpaceBudgetBytes: 1 << 24},
		{DisableSharability: true},
	}
	for seed := int64(20); seed < 26; seed++ {
		batch := randomBatch(rand.New(rand.NewSource(seed)))
		for vi, variant := range variants {
			first, second := optimizeTwice(t, batch, Options{Greedy: variant})
			if diff := sameRun(first, second); diff != "" {
				t.Errorf("seed %d variant %d: rebuilt DAG diverged: %s (cost %v vs %v, set %v vs %v)",
					seed, vi, diff, first.Cost, second.Cost, materializedIDs(first), materializedIDs(second))
			}
		}
	}
}

// TestParallelGreedyMatchesLegacySerialCost pins the engine to the
// known-good invariants on the standard fixture: same cost as the
// exhaustive ablation, still at or below Volcano.
func TestParallelGreedyMatchesLegacySerialCost(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990),
		chain([]string{"S", "T", "P"}, 980))
	volcano := mustOptimize(t, pd, Volcano)
	mono := mustOptimize(t, pd, Greedy)
	exh, err := Optimize(context.Background(), pd, Greedy,
		Options{Greedy: GreedyOptions{DisableMonotonicity: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mono.Cost > volcano.Cost {
		t.Errorf("greedy cost %v exceeds volcano %v", mono.Cost, volcano.Cost)
	}
	if !cost.Eq(mono.Cost, exh.Cost) {
		t.Errorf("monotonic cost %v != exhaustive cost %v", mono.Cost, exh.Cost)
	}
}

// TestGreedyLeavesIncrementalState: after a greedy run the shared DAG's
// costing state must describe the returned result exactly.
func TestGreedyLeavesIncrementalState(t *testing.T) {
	pd := mustBuild(t, chain([]string{"R", "S", "T"}, 990), chain([]string{"R", "S", "P"}, 990))
	res := mustOptimize(t, pd, Greedy)
	if !cost.Eq(pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet())) {
		t.Fatalf("incremental state inconsistent after the run (%v vs %v)",
			pd.TotalCost(), pd.BestCostWith(pd.MaterializedSet()))
	}
	set := map[int]bool{}
	for _, m := range pd.MaterializedSet() {
		set[m.ID] = true
	}
	if len(set) != len(res.Materialized) {
		t.Fatalf("DAG has %d materialized nodes, result %d", len(set), len(res.Materialized))
	}
	for _, m := range res.Materialized {
		if !set[m.ID] {
			t.Fatalf("result node %d not materialized on the DAG", m.ID)
		}
	}
}

// BenchmarkGreedyExhaustive measures the exhaustive greedy loop (every
// candidate recomputed every round — the §6.3 worst case) on a batch big
// enough for benefit evaluation to dominate.
func BenchmarkGreedyExhaustive(b *testing.B) {
	pd := benchDAG(b)
	opt := Options{Greedy: GreedyOptions{DisableMonotonicity: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(context.Background(), pd, Greedy, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDAG builds a batch big enough for the benefit loop to dominate.
func benchDAG(tb testing.TB) *physical.DAG {
	rng := rand.New(rand.NewSource(42))
	var batch []*algebra.Tree
	for i := 0; i < 6; i++ {
		batch = append(batch, randomBatch(rng)...)
	}
	pd, err := BuildDAG(testCatalog(), cost.DefaultModel(), batch)
	if err != nil {
		tb.Fatal(err)
	}
	return pd
}
