package physical

import (
	"container/heap"

	"mqo/internal/cost"
	"mqo/internal/dag"
)

// costState tracks the set of materialized nodes and supports full and
// incremental recosting of the DAG (paper Figure 5).
type costState struct {
	mat        map[*Node]bool
	matByGroup map[*dag.Group][]*Node
	// matList mirrors mat in topological order. Cost totals sum over this
	// list, never over the map: float64 addition is not associative, so
	// summing in Go's randomized map order could make two identical runs
	// differ by an ulp — enough to flip a near-tie greedy pick and break
	// the golden plans.
	matList []*Node

	// Counters for the Figure 10 / §6.3 experiments.
	Propagations   int64 // nodes popped from the propagation heap
	Recomputations int64 // incremental UpdateCost invocations
}

// insertTopo inserts n into a Topo-sorted node list.
func insertTopo(list []*Node, n *Node) []*Node {
	i := len(list)
	for i > 0 && list[i-1].Topo > n.Topo {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// removeNode removes n from a node list, preserving order.
func removeNode(list []*Node, n *Node) []*Node {
	for i, m := range list {
		if m == n {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// initCosting initializes the costing state and runs a full bottom-up pass.
func (pd *DAG) initCosting() {
	pd.costing = costState{mat: map[*Node]bool{}, matByGroup: map[*dag.Group][]*Node{}}
	pd.Recost()
}

// Materialized reports whether n is currently materialized.
func (pd *DAG) Materialized(n *Node) bool { return pd.costing.mat[n] }

// MaterializedSet returns the current set of materialized nodes, in
// topological order.
func (pd *DAG) MaterializedSet() []*Node {
	return append([]*Node(nil), pd.costing.matList...)
}

// Counters returns the (propagations, recomputations) instrumentation.
func (pd *DAG) Counters() (int64, int64) {
	return pd.costing.Propagations, pd.costing.Recomputations
}

// ResetCounters zeroes the instrumentation counters.
func (pd *DAG) ResetCounters() {
	pd.costing.Propagations, pd.costing.Recomputations = 0, 0
}

// AddCounters merges externally accumulated (propagations, recomputations)
// counts — drained from the CostViews a search ran its what-ifs on — into
// the DAG's instrumentation, keeping Figure 10's counters complete.
func (pd *DAG) AddCounters(propagations, recomputations int64) {
	pd.costing.Propagations += propagations
	pd.costing.Recomputations += recomputations
}

// The costing primitives below are parameterized by an optional *CostView
// overlay: with v == nil they read and describe the DAG's own (shared)
// costing state; with a view they see the view's private materialization
// delta and cost overrides instead, leaving the DAG untouched. This is the
// single implementation of the paper's C(e)/cost recurrences used by both
// the shared state machine and the what-if overlay.

// costIn is the current computation cost of n under the overlay.
func (pd *DAG) costIn(v *CostView, n *Node) cost.Cost {
	if v != nil {
		if c, ok := v.over[n]; ok {
			return c
		}
	}
	return n.Cost
}

// matIn reports whether n is materialized under the overlay.
func (pd *DAG) matIn(v *CostView, n *Node) bool {
	if v == nil {
		return pd.costing.mat[n]
	}
	if v.matDel[n] {
		return false
	}
	return v.matAdd[n] || pd.costing.mat[n]
}

// firstUsableMat returns the first node materialized under the overlay
// that can serve input c's requirement for consumer owner, or nil. It
// excludes owner itself (a node must not account its own materialization
// while computing its own cost), and when the consumer is an enforcer of
// the same group (owner.LG == c.LG) only c's own materialization
// qualifies: allowing a sibling's would let two sibling materializations
// cyclically claim to derive from each other. It is the single scan
// behind both costing (reusableBy) and plan extraction
// (bestSatisfyingMat), so extracted plans always match the costs computed
// for them.
func (pd *DAG) firstUsableMat(v *CostView, c, owner *Node) *Node {
	sameGroup := owner != nil && owner.LG == c.LG
	usable := func(m *Node) bool {
		if m == owner || (sameGroup && m != c) {
			return false
		}
		return m.Prop.Satisfies(c.Prop)
	}
	for _, m := range pd.costing.matByGroup[c.LG] {
		if v != nil && v.matDel[m] {
			continue
		}
		if usable(m) {
			return m
		}
	}
	if v != nil {
		for _, m := range v.addByGroup[c.LG] {
			if usable(m) {
				return m
			}
		}
	}
	return nil
}

// reusableBy reports whether some materialized node of c's logical group
// can serve c's requirement for consumer owner.
func (pd *DAG) reusableBy(v *CostView, c, owner *Node) bool {
	return pd.firstUsableMat(v, c, owner) != nil
}

// childCost is the paper's C(e): the cost of input c as seen by a consuming
// operator owned by owner — min(cost, reusecost) when a satisfying
// materialization exists.
func (pd *DAG) childCost(v *CostView, c, owner *Node) cost.Cost {
	cc := pd.costIn(v, c)
	if c.ReuseSeq < cc && pd.reusableBy(v, c, owner) {
		return c.ReuseSeq
	}
	return cc
}

// exprCostIn computes the cost of one physical operation node under the
// overlay's materialization state.
func (pd *DAG) exprCostIn(v *CostView, e *PExpr) cost.Cost {
	total := e.OpCost
	for i, c := range e.Children {
		total += e.Weights[i] * pd.childCost(v, c, e.Node)
	}
	return total
}

// exprCost computes the cost of one physical operation node under the
// current (shared) materialization state.
func (pd *DAG) exprCost(e *PExpr) cost.Cost { return pd.exprCostIn(nil, e) }

// nodeCost computes min over the node's operation nodes.
func (pd *DAG) nodeCost(v *CostView, n *Node) cost.Cost {
	best := cost.Cost(0)
	for i, e := range n.Exprs {
		c := pd.exprCostIn(v, e)
		if i == 0 || c < best {
			best = c
		}
	}
	return best
}

// Recost performs a full bottom-up costing pass in topological order.
func (pd *DAG) Recost() {
	for _, n := range pd.Nodes {
		n.Cost = pd.nodeCost(nil, n)
	}
}

// TotalCost is bestcost(Q, S): the cost of the best plan for the batch root
// given the current materialized set, including the cost of computing and
// materializing every member (paper §4, Figure 5's TotalCost). Summation
// runs in topological order so the result is bit-reproducible.
func (pd *DAG) TotalCost() cost.Cost {
	total := pd.Root.Cost
	for _, m := range pd.costing.matList {
		total += m.Cost + m.MatCost
	}
	return total
}

// nodeHeap is a min-heap of nodes ordered by topological number, used to
// propagate cost changes upward without revisiting nodes (paper Figure 5).
type nodeHeap struct {
	items  []*Node
	inHeap map[*Node]bool
}

func (h *nodeHeap) Len() int           { return len(h.items) }
func (h *nodeHeap) Less(i, j int) bool { return h.items[i].Topo < h.items[j].Topo }
func (h *nodeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *nodeHeap) Push(x interface{}) { h.items = append(h.items, x.(*Node)) }
func (h *nodeHeap) Pop() interface{} {
	n := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return n
}

func (h *nodeHeap) add(n *Node) {
	if !h.inHeap[n] {
		h.inHeap[n] = true
		heap.Push(h, n)
	}
}

func (h *nodeHeap) pop() *Node {
	n := heap.Pop(h).(*Node)
	delete(h.inHeap, n)
	return n
}

// SetMaterialized toggles the materialization status of n and incrementally
// propagates the cost change to affected ancestors, in topological order so
// no node is processed twice (the paper's incremental cost update,
// Figure 5). It returns the number of nodes whose cost was re-examined.
func (pd *DAG) SetMaterialized(n *Node, on bool) int {
	cs := &pd.costing
	if cs.mat[n] == on {
		return 0
	}
	if on {
		cs.mat[n] = true
		cs.matByGroup[n.LG] = append(cs.matByGroup[n.LG], n)
		cs.matList = insertTopo(cs.matList, n)
	} else {
		delete(cs.mat, n)
		cs.matByGroup[n.LG] = removeNode(cs.matByGroup[n.LG], n)
		cs.matList = removeNode(cs.matList, n)
	}
	cs.Recomputations++

	// Seed the heap with every sibling node whose consumers may now see a
	// different input cost (the changed set S△S′ of Figure 5).
	h := &nodeHeap{inHeap: map[*Node]bool{}}
	forced := map[*Node]bool{}
	for _, s := range pd.byGroup[n.LG] {
		if n.Prop.Satisfies(s.Prop) {
			forced[s] = true
			h.add(s)
		}
	}

	touched := 0
	for h.Len() > 0 {
		cur := h.pop()
		cs.Propagations++
		touched++
		old := cur.Cost
		cur.Cost = pd.nodeCost(nil, cur)
		if cur.Cost != old || forced[cur] {
			for _, p := range cur.Parents {
				h.add(p.Node)
			}
		}
	}
	return touched
}

// SetMaterializedRaw toggles materialization state without incremental
// propagation; the caller is responsible for calling Recost. It exists for
// the §6.3 ablation that disables incremental cost update, and for tests.
func (pd *DAG) SetMaterializedRaw(n *Node, on bool) {
	cs := &pd.costing
	if cs.mat[n] == on {
		return
	}
	if on {
		cs.mat[n] = true
		cs.matByGroup[n.LG] = append(cs.matByGroup[n.LG], n)
		cs.matList = insertTopo(cs.matList, n)
		return
	}
	delete(cs.mat, n)
	cs.matByGroup[n.LG] = removeNode(cs.matByGroup[n.LG], n)
	cs.matList = removeNode(cs.matList, n)
}

// BestCostWith computes bestcost(Q, S) for an explicit set S with a full
// from-scratch costing pass, leaving the costing state as it found it. It
// is the non-incremental reference implementation used by tests and by the
// greedy ablation with incremental update disabled.
func (pd *DAG) BestCostWith(set []*Node) cost.Cost {
	saved := pd.MaterializedSet()
	for _, m := range saved {
		pd.SetMaterializedRaw(m, false)
	}
	for _, m := range set {
		pd.SetMaterializedRaw(m, true)
	}
	pd.Recost()
	total := pd.TotalCost()
	for _, m := range set {
		pd.SetMaterializedRaw(m, false)
	}
	for _, m := range saved {
		pd.SetMaterializedRaw(m, true)
	}
	pd.Recost()
	return total
}
