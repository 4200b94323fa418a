package physical

import (
	"mqo/internal/cost"
	"mqo/internal/dag"
)

// CostView is a private what-if overlay over a DAG's costing state: a
// materialized-set delta (additions and removals) plus per-node cost
// overrides, maintained with the same incremental dirty-ancestor
// propagation as DAG.SetMaterialized (paper Figure 5) but without ever
// writing to the shared DAG: the greedy heuristic evaluates every
// candidate's benefit on one, and each Volcano-RU order pass runs on one.
//
// A CostView treats the underlying DAG as a snapshot: while a what-if is
// in flight the DAG's costing state (node costs, materialized set) must
// not change. Toggle on the DAG only between what-ifs, then keep using the
// same view — it reads base costs live, so no copying is needed to refresh
// it. A CostView is not safe for concurrent use.
type CostView struct {
	pd *DAG

	over       map[*Node]cost.Cost // cost overrides (dirty ancestors)
	matAdd     map[*Node]bool      // materialized in the view, not in the base
	matDel     map[*Node]bool      // materialized in the base, not in the view
	addByGroup map[*dag.Group][]*Node
	addList    []*Node // matAdd in topological order, for reproducible sums

	heap   nodeHeap
	forced map[*Node]bool

	// Propagation instrumentation, accumulated across what-ifs until the
	// owner drains it (DrainCounters) into the DAG's Figure 10 counters.
	Propagations   int64
	Recomputations int64
}

// NewCostView returns an empty overlay over pd's current costing state.
func (pd *DAG) NewCostView() *CostView {
	return &CostView{
		pd:         pd,
		over:       map[*Node]cost.Cost{},
		matAdd:     map[*Node]bool{},
		matDel:     map[*Node]bool{},
		addByGroup: map[*dag.Group][]*Node{},
		heap:       nodeHeap{inHeap: map[*Node]bool{}},
		forced:     map[*Node]bool{},
	}
}

// Materialized reports whether n is materialized under the view.
func (v *CostView) Materialized(n *Node) bool { return v.pd.matIn(v, n) }

// CostOf returns n's computation cost under the view.
func (v *CostView) CostOf(n *Node) cost.Cost { return v.pd.costIn(v, n) }

// SetMaterialized toggles the materialization status of n inside the view
// and incrementally propagates the cost change to affected ancestors as
// cost overrides, leaving the shared DAG untouched. It returns the number
// of nodes whose cost was re-examined.
func (v *CostView) SetMaterialized(n *Node, on bool) int {
	pd := v.pd
	if pd.matIn(v, n) == on {
		return 0
	}
	base := pd.costing.mat[n]
	if on {
		if base {
			delete(v.matDel, n)
		} else {
			v.matAdd[n] = true
			v.addByGroup[n.LG] = append(v.addByGroup[n.LG], n)
			v.addList = insertTopo(v.addList, n)
		}
	} else {
		if base {
			v.matDel[n] = true
		} else {
			delete(v.matAdd, n)
			v.addByGroup[n.LG] = removeNode(v.addByGroup[n.LG], n)
			v.addList = removeNode(v.addList, n)
		}
	}
	v.Recomputations++

	// Dirty-ancestor propagation from the toggled node: seed with the
	// sibling nodes whose consumers may now see a different input cost,
	// then walk upward in topological order (Figure 5), recording changed
	// costs as overrides instead of writing Node.Cost.
	h := &v.heap
	for _, s := range pd.byGroup[n.LG] {
		if n.Prop.Satisfies(s.Prop) {
			v.forced[s] = true
			h.add(s)
		}
	}
	touched := 0
	for h.Len() > 0 {
		cur := h.pop()
		v.Propagations++
		touched++
		old := pd.costIn(v, cur)
		next := pd.nodeCost(v, cur)
		v.over[cur] = next
		if next != old || v.forced[cur] {
			for _, p := range cur.Parents {
				h.add(p.Node)
			}
		}
	}
	clear(v.forced)
	return touched
}

// TotalCost is bestcost(Q, S) under the view: the root's cost plus the
// computation and materialization cost of every member of the view's
// materialized set. Both lists are walked in topological order, so the
// float64 sum is bit-reproducible across runs.
func (v *CostView) TotalCost() cost.Cost {
	pd := v.pd
	total := pd.costIn(v, pd.Root)
	for _, m := range pd.costing.matList {
		if v.matDel[m] {
			continue
		}
		total += pd.costIn(v, m) + m.MatCost
	}
	for _, m := range v.addList {
		total += pd.costIn(v, m) + m.MatCost
	}
	return total
}

// Reset drops the view's delta and overrides, returning it to a pristine
// overlay of the DAG's current state. Instrumentation counters are kept
// (drain them with DrainCounters).
func (v *CostView) Reset() {
	clear(v.over)
	clear(v.matAdd)
	clear(v.matDel)
	clear(v.addByGroup)
	v.addList = v.addList[:0]
}

// DrainCounters returns and zeroes the view's accumulated (propagations,
// recomputations) counts, for merging into the DAG's instrumentation.
func (v *CostView) DrainCounters() (propagations, recomputations int64) {
	propagations, recomputations = v.Propagations, v.Recomputations
	v.Propagations, v.Recomputations = 0, 0
	return propagations, recomputations
}

// WhatIfBenefit computes bestcost(Q, S) - bestcost(Q, S ∪ {n}) — the
// benefit of additionally materializing n — without touching the shared
// DAG. The view must be pristine when called (as it is between
// WhatIfBenefit calls) and is reset afterwards, ready for the next what-if.
//
// The benefit is computed in DELTA form — the sum, in topological order,
// of (old - new) over exactly the terms of TotalCost the wave changed,
// minus the new member's computation and materialization cost — rather
// than as a subtraction of two full TotalCost sums. In real arithmetic the
// two are identical; in floats they round differently, and the greedy
// picks — where symmetric candidates tie in benefit — follow the delta
// form's rounding, which the golden plans pin.
func (v *CostView) WhatIfBenefit(n *Node) cost.Cost {
	pd := v.pd
	if pd.matIn(v, n) {
		return 0
	}
	v.SetMaterialized(n, true)
	// Benefit = Σ (old - new) over the changed TotalCost terms — the root
	// and the base materialized list, walked in topological order for
	// reproducible float sums — minus the new member's own contribution.
	ben := cost.Cost(0)
	if c, ok := v.over[pd.Root]; ok {
		ben += pd.Root.Cost - c
	}
	for _, m := range pd.costing.matList {
		if c, ok := v.over[m]; ok {
			ben += m.Cost - c
		}
	}
	ben -= pd.costIn(v, n) + n.MatCost
	v.Reset()
	return ben
}
