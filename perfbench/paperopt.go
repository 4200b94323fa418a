package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/psp"
	"mqo/internal/tpcd"
)

// paper-optimize: one client, closed loop, no database. Each request is
// one OptimizeBatch call on one of the paper's batches — PSP CQ1..CQ5 and
// TPC-D BQ1..BQ5 — under Volcano-SH, Volcano-RU or Greedy, with the plan
// cache off, so the DAG build, the search and the cost model do all the
// work. A pass runs all 30 requests in a seeded order.

// goldenDir holds the committed plan snapshots, relative to the repository
// root the benchmark runs from.
var goldenDir = filepath.Join("internal", "core", "testdata", "golden")

// goldenBatches are the batches with a committed snapshot under each of
// the three algorithms (PSP CQ4 and CQ5 have none). Set-up fails when one
// of these 24 snapshots cannot be read, so the check cannot turn itself
// off.
var goldenBatches = map[string]bool{"cq1": true, "cq2": true, "cq3": true,
	"bq1": true, "bq2": true, "bq3": true, "bq4": true, "bq5": true}

var paperAlgorithms = []mqo.Algorithm{mqo.VolcanoSH, mqo.VolcanoRU, mqo.Greedy}

type paperRequest struct {
	name    string // golden base name: cq1, bq3, ...
	opt     *mqo.Optimizer
	queries []*algebra.Tree
	alg     mqo.Algorithm
	golden  string // "" for the batches outside goldenBatches
}

type paperOptimize struct {
	reqs  []paperRequest
	rng   *rand.Rand
	wrong int
}

func (w *paperOptimize) provenance() map[string]any {
	return map[string]any{"psp_scale": 1, "tpcd_sf": 1, "plan_cache": "off", "clients": 1,
		"requests_per_pass": len(w.reqs)}
}

func (w *paperOptimize) setup(seed int64) (time.Duration, error) {
	pspOpt, err := mqo.Open(psp.Catalog(1))
	if err != nil {
		return 0, err
	}
	tpcdOpt, err := mqo.Open(tpcd.Catalog(1))
	if err != nil {
		return 0, err
	}
	w.reqs, w.rng, w.wrong = nil, rand.New(rand.NewSource(seed)), 0
	for i := 1; i <= 5; i++ {
		for _, b := range []struct {
			name    string
			opt     *mqo.Optimizer
			queries []*algebra.Tree
		}{{fmt.Sprintf("cq%d", i), pspOpt, psp.CQ(i)}, {fmt.Sprintf("bq%d", i), tpcdOpt, tpcd.BatchQueries(i)}} {
			for _, alg := range paperAlgorithms {
				var golden []byte
				if goldenBatches[b.name] {
					golden, err = os.ReadFile(filepath.Join(goldenDir, b.name+"_"+strings.ToLower(alg.String())+".plan"))
					if err != nil {
						return 0, fmt.Errorf("golden snapshot: %w", err)
					}
				}
				w.reqs = append(w.reqs, paperRequest{b.name, b.opt, b.queries, alg, string(golden)})
			}
		}
	}
	// One pass warms the heap and code paths.
	for i := range w.reqs {
		r := &w.reqs[i]
		if _, err := r.opt.OptimizeBatch(context.Background(), r.queries, r.alg); err != nil {
			return 0, fmt.Errorf("warm-up %s %v: %w", r.name, r.alg, err)
		}
	}
	return 0, nil
}

func (w *paperOptimize) close() {}

// check counts a plan that differs from its golden snapshot or costs more
// than the no-sharing plan.
func (w *paperOptimize) check(r *paperRequest, res *mqo.Result) {
	if res.Cost > res.NoShareCost*(1+1e-9) {
		w.wrong++
		fmt.Printf("# %s %v: plan cost %.4f exceeds no-sharing cost %.4f\n", r.name, r.alg, res.Cost, res.NoShareCost)
	}
	if r.golden != "" && renderGolden(res) != r.golden {
		w.wrong++
		fmt.Printf("# %s %v: plan differs from its golden snapshot\n", r.name, r.alg)
	}
}

// renderGolden is the snapshot text the core package's golden test writes.
func renderGolden(res *mqo.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm: %v\n", res.Algorithm)
	fmt.Fprintf(&b, "cost: %.4f\n", res.Cost)
	fmt.Fprintf(&b, "noshare: %.4f\n", res.NoShareCost)
	ids := make([]string, len(res.Materialized))
	for i, m := range res.Materialized {
		ids[i] = fmt.Sprintf("%d", m.ID)
	}
	fmt.Fprintf(&b, "materialized: [%s]\n\n", strings.Join(ids, " "))
	b.WriteString(res.Plan.String())
	return b.String()
}

// measure runs whole seeded passes until d has elapsed. Each plan is
// checked right after its call, outside the metered stretch.
func (w *paperOptimize) measure(d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	acc := newLayerAcc()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for _, i := range w.rng.Perm(len(w.reqs)) {
			r := &w.reqs[i]
			win.requests++
			var (
				res *mqo.Result
				err error
			)
			m := startMeter()
			if tr == nil {
				res, err = r.opt.OptimizeBatch(context.Background(), r.queries, r.alg)
			} else {
				res, err = w.traced(tr, acc, r)
			}
			lat := m.stop(win)
			if err != nil {
				win.errors++
				fmt.Printf("# %s %v: %v\n", r.name, r.alg, err)
				continue
			}
			w.check(r, res)
			win.lat = append(win.lat, ms(lat))
			win.answered(len(r.queries))
			win.planCost += res.Cost
		}
		win.cut()
	}
	if tr != nil {
		win.layer = acc.values(tr.snapshot(), win.queries, 0)
	}
	return win, nil
}

// traced replays what OptimizeBatch does without a plan cache — build the
// DAG, search it — with a span around each call.
func (w *paperOptimize) traced(tr *tracer, acc *layerAcc, r *paperRequest) (*mqo.Result, error) {
	req := tr.newReq()
	root := tr.begin("request", 0, req)
	defer tr.end(root)

	s := tr.begin("dag", root, req)
	t0 := time.Now()
	pd, err := core.BuildDAG(r.opt.Catalog(), r.opt.Model(), r.queries)
	build := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	acc.add(&acc.dagBuild, ms(build))

	s = tr.begin("core", root, req)
	t0 = time.Now()
	res, err := core.Optimize(context.Background(), pd, r.alg, mqo.Options{})
	search := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	acc.optimized(res, search)
	return res, nil
}

func (w *paperOptimize) verify() (int, error) { return w.wrong, nil }
