package core

import (
	"context"

	"mqo/internal/cost"
	"mqo/internal/physical"
)

// searchEngine is the serial search loop the greedy variants share. It owns
// the two steps every DAG search repeats:
//
//	evaluate a wave of what-if candidates → commit one pick
//
// Evaluation runs on one physical.CostView overlay of the shared DAG, so
// what-ifs never write the DAG; a commit updates the DAG incrementally
// (Figure 5) between waves. Picks break ties by benefit first, then
// smaller topological number, so the chosen set depends on the DAG alone.
type searchEngine struct {
	pd *physical.DAG
	// view is the what-if overlay; nil under the DisableIncremental
	// ablation, which recosts from scratch on the shared DAG instead.
	view *physical.CostView

	// recomps counts benefit recomputations and waves counts non-empty
	// evaluation waves (Stats.BenefitRecomputations / Stats.EvalWaves).
	recomps int64
	waves   int64
}

// newSearchEngine builds an engine for one optimization run.
func newSearchEngine(pd *physical.DAG, opt GreedyOptions) *searchEngine {
	e := &searchEngine{pd: pd}
	if !opt.DisableIncremental {
		e.view = pd.NewCostView()
	}
	return e
}

// close drains the view's propagation instrumentation into the DAG's
// Figure 10 counters. Call exactly once after the last wave, on error
// paths too.
func (e *searchEngine) close() {
	if e.view != nil {
		e.pd.AddCounters(e.view.DrainCounters())
		e.view = nil
	}
}

// evalWave computes the benefits of all candidates against the DAG's
// current state and returns them in input order. A cancelled context stops
// the wave and returns ctx.Err().
func (e *searchEngine) evalWave(ctx context.Context, nodes []*physical.Node) ([]cost.Cost, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	e.waves++
	base := e.pd.TotalCost()
	out := make([]cost.Cost, len(nodes))
	for i, n := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.recomps++
		if e.view != nil {
			out[i] = e.view.WhatIfBenefit(n)
		} else {
			out[i] = base - e.pd.BestCostWith(append(e.pd.MaterializedSet(), n))
		}
	}
	return out, nil
}

// commit materializes n on the shared DAG (incremental Figure 5 update).
func (e *searchEngine) commit(n *physical.Node) {
	e.pd.SetMaterialized(n, true)
}
