package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mqo"
	"mqo/internal/algebra"
	"mqo/internal/core"
	"mqo/internal/cost"
	"mqo/internal/dag"
	"mqo/internal/exec"
	"mqo/internal/server"
	"mqo/internal/sql"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// serve-churn: one client, closed loop, Submits single SSB queries to
// mqo.Serve with the plan cache and the result cache on. A pass deals
// every text churnUses times in a seeded order and starts from an emptied
// result cache, as after a data reload: the first use of a text computes
// it and spools its result, and the later uses read it back, so cache
// writes and cache reads run side by side in the same proportion on every
// run. Batches hold one query, so a miss spools only its own root and the
// work of a pass does not depend on its order. Three uses in four are
// hits, so the median request is a hit, served by the batcher, parse, DAG
// build, search and cache read; the misses' execution dominates CPU per
// query. With one client a window never holds more than one query, so
// MaxBatch 1 dispatches it at once instead of waiting out the batching
// window; with two clients the coalescing, and with it CPU and throughput
// per query, differed from run to run by up to 40%.
const (
	churnSF        = 0.001
	churnPoolPages = 1024
	// churnRAMBytes holds everything a pass spools, so eviction happens
	// only when a pass empties the cache.
	churnRAMBytes = 4 << 20
	// churnUses is how often a pass deals each text.
	churnUses = 4
)

// churnTexts are the 13 SSB queries plus the drill-down steps of all four
// flights.
func churnTexts() []string {
	texts := ssb.AllQuerySQL()
	for n := 1; n <= ssb.NumFlights; n++ {
		texts = append(texts, ssb.DrillDownSQL(n, ssb.MaxDrillSteps)...)
	}
	return texts
}

// churnPass is the seeded order of one pass: a permutation holding every
// one of n texts churnUses times.
func churnPass(rng *rand.Rand, n int) []int {
	p := rng.Perm(churnUses * n)
	for i := range p {
		p[i] %= n
	}
	return p
}

type serveChurn struct {
	texts []string
	db    *storage.DB
	opt   *mqo.Optimizer
	svc   *mqo.Service
	rng   *rand.Rand
	// seen counts, per text, the requests that returned each distinct
	// canonical answer; verify checks each distinct answer once.
	seen []map[string]int
	// planHit is the plan-cache hit ratio of the last untraced window; the
	// traced replay has no access to the session's plan cache.
	planHit float64
	// curReq and curSpan are the traced request in flight and its server
	// span, under which the runner hangs the batch it runs. One client
	// means one request in flight; the batcher starts the runner's
	// goroutine after they are set.
	curReq  int64
	curSpan int
}

func (w *serveChurn) provenance() map[string]any {
	return map[string]any{"sf": churnSF, "pool_pages": churnPoolPages, "plan_cache": "on",
		"result_cache_ram_bytes": churnRAMBytes, "result_cache_warm_bytes": 0, "clients": 1,
		"max_batch": 1, "texts": len(w.texts), "uses_per_pass": churnUses}
}

func (w *serveChurn) setup(seed int64) (time.Duration, error) {
	w.close()
	t0 := time.Now()
	db := storage.NewDB(churnPoolPages)
	if err := ssb.LoadDB(db, churnSF, dataSeed); err != nil {
		return 0, err
	}
	load := time.Since(t0)
	opt, err := mqo.Open(ssb.Catalog(churnSF), mqo.WithDB(db), mqo.WithPlanCache(256))
	if err != nil {
		return 0, err
	}
	svc, err := mqo.Serve(opt, mqo.BatchingOptions{MaxBatch: 1, ResultCacheBytes: churnRAMBytes})
	if err != nil {
		opt.Close()
		return 0, err
	}
	w.texts, w.db, w.opt, w.svc = churnTexts(), db, opt, svc
	// One pass in a fixed order brings the pool, the heap and the code
	// paths to their steady state.
	for i, text := range w.texts {
		if _, err := svc.Submit(context.Background(), text); err != nil {
			return 0, fmt.Errorf("warm-up text %d: %w", i, err)
		}
	}
	w.rng = rand.New(rand.NewSource(seed))
	w.seen = make([]map[string]int, len(w.texts))
	for i := range w.seen {
		w.seen[i] = map[string]int{}
	}
	return load, nil
}

func (w *serveChurn) close() {
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	if w.opt != nil {
		w.opt.Close()
		w.opt = nil
	}
}

// measure runs whole passes until d has elapsed, through Service.Submit
// when tr is nil and through the traced replay otherwise. Each call is
// metered on its own; checking its answer and emptying the cache between
// passes are not.
func (w *serveChurn) measure(d time.Duration, tr *tracer) (*window, error) {
	rc := w.opt.ResultCache()
	pc0, rc0 := w.opt.CacheStats(), rc.Stats()
	submit := func(text string) (*mqo.Answer, error) { return w.svc.Submit(context.Background(), text) }
	var (
		acc *layerAcc
		b   *server.Batcher
	)
	if tr != nil {
		acc = newLayerAcc()
		b = server.NewBatcher(server.Config{MaxBatch: 1}, w.runner(tr, acc))
		submit = func(text string) (*mqo.Answer, error) { return w.traced(tr, acc, b, text) }
	}
	win := &window{}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		rc.SetBudget(0)
		rc.SetBudget(churnRAMBytes)
		for _, t := range churnPass(w.rng, len(w.texts)) {
			win.requests++
			m := startMeter()
			ans, err := submit(w.texts[t])
			lat := m.stop(win)
			if err != nil {
				win.errors++
				fmt.Printf("# text %d: %v\n", t, err)
				continue
			}
			bi := ans.Batch
			if bi.Cost > bi.NoShareCost*(1+1e-9) {
				win.errors++
				fmt.Printf("# text %d: plan cost %.4f exceeds no-sharing cost %.4f\n", t, bi.Cost, bi.NoShareCost)
			}
			win.lat = append(win.lat, ms(lat))
			win.answered(1)
			win.planCost += bi.Cost
			win.simIO += bi.Exec.SimTime
			w.seen[t][canonical(ans.Query.Schema, ans.Query.Rows)]++
		}
		win.cut()
	}
	if b != nil {
		b.Close()
	}
	pc, rcs := w.opt.CacheStats(), rc.Stats()
	hits, misses := pc.Hits-pc0.Hits, pc.Misses-pc0.Misses
	batches := rcs.Batches - rc0.Batches
	spools := rcs.Admissions - rc0.Admissions
	fmt.Printf("# over the window: plan cache %d hits, %d misses; result cache %d batches, %d hit batches, %d hits, %d admissions, %d evictions\n",
		hits, misses, batches, rcs.HitBatches-rc0.HitBatches, rcs.Hits-rc0.Hits, spools, rcs.Evictions-rc0.Evictions)
	if tr == nil {
		w.planHit = ratio(float64(hits), float64(hits+misses))
		return win, nil
	}
	win.layer = acc.values(tr.snapshot(), win.queries, int(b.Stats().Batches))
	win.layer["plancache.hit_ratio"] = w.planHit
	win.layer["cache.hit_ratio"] = ratio(float64(rcs.HitBatches-rc0.HitBatches), float64(batches))
	win.layer["cache.spools_per_kq"] = 1000 * ratio(float64(spools), float64(win.queries))
	return win, nil
}

// traced does what Service.Submit does — parse on the caller's goroutine,
// then wait in the batcher — with spans around both calls.
func (w *serveChurn) traced(tr *tracer, acc *layerAcc, b *server.Batcher, text string) (*mqo.Answer, error) {
	req := tr.newReq()
	root := tr.begin("request", 0, req)
	defer tr.end(root)

	s := tr.begin("sql", root, req)
	queries, tm, err := sql.ParseBatchTimed(w.opt.Catalog(), text)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	acc.add(&acc.parse, us(tm.Parse))
	acc.add(&acc.lower, us(tm.Lower))

	s = tr.begin("server", root, req)
	w.curReq, w.curSpan = req, s
	resp, err := b.Submit(context.Background(), queries[0])
	tr.end(s)
	if err != nil {
		return nil, err
	}
	acc.add(&acc.queueWait, ms(resp.Batch.Wait))
	return &mqo.Answer{Query: resp.Result, Batch: resp.Batch}, nil
}

// runner is the batcher's Runner for the traced window: what the session
// does for one batch with a result cache — build the DAG, arm the cache,
// search, plan spools, execute, commit — with a span around each call,
// all under a batch span inside the request's server span. It has no plan
// cache: that cache is private to the session.
func (w *serveChurn) runner(tr *tracer, acc *layerAcc) server.Runner {
	rc, model, cat := w.opt.ResultCache(), w.opt.Model(), w.opt.Catalog()
	return func(ctx context.Context, queries []*algebra.Tree) (*server.BatchResult, error) {
		req := w.curReq
		root := tr.begin("batch", w.curSpan, req)
		defer tr.end(root)

		s := tr.begin("dag", root, req)
		t0 := time.Now()
		ld := dag.New(cost.Estimator{Cat: cat})
		for _, q := range queries {
			if _, err := ld.AddQuery(q); err != nil {
				tr.end(s)
				return nil, err
			}
		}
		pd, err := core.FinishDAG(ld, model)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		acc.add(&acc.dagBuild, ms(time.Since(t0)))

		s = tr.begin("cache", root, req)
		t0 = time.Now()
		ticket := rc.Arm(pd, nil)
		tr.end(s)
		acc.add(&acc.arm, us(time.Since(t0)))

		s = tr.begin("core", root, req)
		t0 = time.Now()
		res, err := core.Optimize(ctx, pd, core.Greedy, mqo.Options{})
		search := time.Since(t0)
		tr.end(s)
		if err != nil {
			ticket.Abort()
			return nil, err
		}
		acc.optimized(res, search)

		s = tr.begin("cache", root, req)
		sp := ticket.PlanSpools(res.Plan)
		tr.end(s)

		s = tr.begin("exec", root, req)
		a0 := allocBytes()
		t0 = time.Now()
		env := &exec.Env{Profile: true, Cache: &exec.CacheIO{Spools: sp, BindSpools: ticket.BindingSpools()}}
		rows, st, err := exec.Run(ctx, w.db, model, res.Plan, env)
		run, alloc := time.Since(t0), allocBytes()-a0
		tr.end(s)
		if err != nil {
			ticket.Abort()
			return nil, err
		}
		acc.executed(st, run, alloc)

		s = tr.begin("cache", root, req)
		t0 = time.Now()
		hits := ticket.Commit()
		tr.end(s)
		acc.add(&acc.commit, us(time.Since(t0)))

		return &server.BatchResult{PerQuery: rows, Cost: res.Cost, NoShareCost: res.NoShareCost,
			ResultCacheHits: hits, ResultCacheSpool: len(sp), Algorithm: res.Algorithm.String(),
			Exec: st}, nil
	}
}

// canonical is one answer's canonical rows as a single comparable string.
func canonical(schema algebra.Schema, rows []storage.Row) string {
	return strings.Join(exec.Canonicalize(schema, rows), "\x00")
}

// verify compares every distinct answer a text returned with
// exec.Reference; each request that returned a wrong one counts.
func (w *serveChurn) verify() (int, error) {
	wrong := 0
	for i, text := range w.texts {
		if len(w.seen[i]) == 0 {
			continue
		}
		q, err := sql.Parse(w.opt.Catalog(), text)
		if err != nil {
			return 0, err
		}
		rows, schema, err := exec.Reference(w.db, q, nil)
		if err != nil {
			return 0, err
		}
		want := canonical(schema, rows)
		for got, n := range w.seen[i] {
			if got != want {
				wrong += n
				fmt.Printf("# text %d: rows differ from exec.Reference in %d answers\n", i, n)
			}
		}
	}
	return wrong, nil
}
