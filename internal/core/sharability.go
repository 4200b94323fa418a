package core

import (
	"mqo/internal/algebra"
	"mqo/internal/dag"
	"mqo/internal/physical"
)

// ComputeSharability implements the paper's §4.1: for every logical
// equivalence node z, the degree of sharing E[root][z] — the maximum number
// of occurrences of z in any plan tree of the expanded DAG — computed by
// the Sum (operation nodes) / Max (equivalence nodes) recurrences, one z at
// a time (which keeps space linear, as the paper suggests). Invocation
// counts of nested queries multiply the degree (§5). It returns the degree
// per logical group and marks physical nodes of groups with degree > 1 (and
// not parameter-dependent) as Sharable.
//
// Note that a node can be sharable even with a single parent operation
// node, when that parent itself occurs multiple times in some plan tree
// (the paper's e1/e2/e3 example in §3.2); the bottom-up product over the
// recurrences accounts for this.
func ComputeSharability(pd *physical.DAG) map[*dag.Group]float64 {
	root := pd.Root.LG
	order := logicalTopoOrder(root)
	ops := sharingOps(order)
	degrees := make(map[*dag.Group]float64, len(order))
	e := make([]float64, len(order))
	for zi, z := range order[:len(order)-1] { // the root is last
		degrees[z] = degreeOfSharing(ops, zi, e)
	}
	for _, n := range pd.Nodes {
		n.Sharable = degrees[n.LG] > 1 && !n.LG.ParamDep
	}
	return degrees
}

// sharingOp is one operation node of the §4.1 recurrences: its weight (an
// Invoke's invocation count, else 1) and its children's positions in the
// topological order.
type sharingOp struct {
	w    float64
	kids []int
}

// sharingOps lists each group's operation nodes, indexed like order.
func sharingOps(order []*dag.Group) [][]sharingOp {
	pos := make(map[*dag.Group]int, len(order))
	for i, g := range order {
		pos[g] = i
	}
	ops := make([][]sharingOp, len(order))
	for i, g := range order {
		for _, ex := range g.Exprs {
			op := sharingOp{w: 1, kids: make([]int, len(ex.Children))}
			if iv, ok := ex.Op.(algebra.Invoke); ok {
				op.w = float64(iv.Times)
			}
			for j, c := range ex.Children {
				op.kids[j] = pos[c.Find()]
			}
			ops[i] = append(ops[i], op)
		}
	}
	return ops
}

// degreeOfSharing runs the §4.1 recurrences for the group at position z of
// the topological order and returns the root's (last) value, overwriting
// e. Groups before z cannot contain z, so their value is 0: the pass
// starts at z and skips their terms, which adds exactly the same float sum.
func degreeOfSharing(ops [][]sharingOp, z int, e []float64) float64 {
	e[z] = 1
	for i := z + 1; i < len(ops); i++ {
		best := 0.0
		for _, op := range ops[i] {
			sum := 0.0
			for _, c := range op.kids {
				if c >= z {
					sum += op.w * e[c]
				}
			}
			if sum > best {
				best = sum
			}
		}
		e[i] = best
	}
	return e[len(e)-1]
}

// MarkAllSharable marks every non-parameter-dependent node sharable,
// implementing the §6.3 sharability ablation ("every node is assumed to be
// potentially sharable").
func MarkAllSharable(pd *physical.DAG) {
	for _, n := range pd.Nodes {
		n.Sharable = !n.LG.ParamDep
	}
}

// logicalTopoOrder returns the logical groups reachable from root with
// children before parents.
func logicalTopoOrder(root *dag.Group) []*dag.Group {
	var order []*dag.Group
	seen := map[*dag.Group]bool{}
	var visit func(g *dag.Group)
	visit = func(g *dag.Group) {
		g = g.Find()
		if seen[g] {
			return
		}
		seen[g] = true
		for _, e := range g.Exprs {
			for _, c := range e.Children {
				visit(c)
			}
		}
		order = append(order, g)
	}
	visit(root)
	return order
}
