package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mqo"
	"mqo/internal/exec"
	"mqo/internal/sql"
	"mqo/internal/ssb"
	"mqo/internal/storage"
)

// ssb-exec: one client, closed loop, runs the four SSB flights as Greedy
// batches through Optimizer.Run. The plan cache answers every optimization
// after warm-up and the result cache is off, so exec and storage do nearly
// all the work. The buffer pool holds a fifth to a quarter of the pages a
// flight reads, so every flight faults pages in.
const (
	ssbExecSF        = 0.003
	ssbExecPoolPages = 256
)

// dataSeed fixes the SSB data of both SSB workloads; the workload seed
// orders the requests. At these scale factors the dimension tables hold a
// handful of rows (six suppliers at SF 0.003), so the generator's seed
// decides the selectivities, and seeded data moved the work per query by
// up to a factor of two between seeds.
const dataSeed = 1

type ssbExec struct {
	db      *storage.DB
	opt     *mqo.Optimizer
	rng     *rand.Rand
	answers []flightAnswer
}

type flightAnswer struct {
	flight int
	got    []exec.QueryResult
}

// flightPass is the seeded order of one pass over the four flights.
func flightPass(rng *rand.Rand) []int {
	p := rng.Perm(ssb.NumFlights)
	for i := range p {
		p[i]++
	}
	return p
}

func (w *ssbExec) provenance() map[string]any {
	return map[string]any{"sf": ssbExecSF, "pool_pages": ssbExecPoolPages,
		"plan_cache": "on", "result_cache_bytes": 0, "clients": 1}
}

func (w *ssbExec) setup(seed int64) (time.Duration, error) {
	w.close()
	t0 := time.Now()
	db := storage.NewDB(ssbExecPoolPages)
	if err := ssb.LoadDB(db, ssbExecSF, dataSeed); err != nil {
		return 0, err
	}
	load := time.Since(t0)
	opt, err := mqo.Open(ssb.Catalog(ssbExecSF), mqo.WithDB(db), mqo.WithPlanCache(16))
	if err != nil {
		return 0, err
	}
	w.db, w.opt, w.rng, w.answers = db, opt, rand.New(rand.NewSource(seed)), nil
	// One pass fills the plan cache and brings the pool and heap to their
	// steady state.
	for n := 1; n <= ssb.NumFlights; n++ {
		if _, err := opt.Run(context.Background(), mqo.Batch{SQL: ssb.FlightSQL(n), Algorithm: mqo.Greedy}); err != nil {
			return 0, fmt.Errorf("warm-up flight %d: %w", n, err)
		}
	}
	return load, nil
}

func (w *ssbExec) close() {
	if w.opt != nil {
		w.opt.Close()
		w.opt = nil
	}
}

// measure runs whole passes until d has elapsed, so every window holds
// each flight equally often.
func (w *ssbExec) measure(d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	acc := newLayerAcc()
	pc0 := w.opt.CacheStats()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for _, n := range flightPass(w.rng) {
			win.requests++
			var (
				res  *mqo.Result
				rows []exec.QueryResult
				sim  float64
				err  error
			)
			m := startMeter()
			if tr == nil {
				var er *mqo.ExecResult
				if er, err = w.opt.Run(context.Background(), mqo.Batch{SQL: ssb.FlightSQL(n), Algorithm: mqo.Greedy}); err == nil {
					res, rows, sim = er.Result, er.Queries, er.Exec.SimTime
				}
			} else {
				res, rows, sim, err = w.traced(tr, acc, ssb.FlightSQL(n))
			}
			lat := m.stop(win)
			if err != nil {
				win.errors++
				fmt.Printf("# flight %d: %v\n", n, err)
				continue
			}
			if res.Cost > res.NoShareCost*(1+1e-9) {
				win.errors++
				fmt.Printf("# flight %d: plan cost %.4f exceeds no-sharing cost %.4f\n", n, res.Cost, res.NoShareCost)
			}
			win.lat = append(win.lat, ms(lat))
			win.answered(len(rows))
			win.planCost += res.Cost
			win.simIO += sim
			w.answers = append(w.answers, flightAnswer{n, rows})
		}
		win.cut()
	}
	if tr != nil {
		win.layer = acc.values(tr.snapshot(), win.queries, 0)
		pc := w.opt.CacheStats()
		hits, misses := pc.Hits-pc0.Hits, pc.Misses-pc0.Misses
		win.layer["plancache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	}
	return win, nil
}

// traced replays what Optimizer.Run does for one batch without a result
// cache — parse, plan-cache lookup (which optimizes on a miss), execute —
// with a span around each call.
func (w *ssbExec) traced(tr *tracer, acc *layerAcc, text string) (*mqo.Result, []exec.QueryResult, float64, error) {
	req := tr.newReq()
	root := tr.begin("request", 0, req)
	defer tr.end(root)

	s := tr.begin("sql", root, req)
	queries, tm, err := sql.ParseBatchTimed(w.opt.Catalog(), text)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	acc.add(&acc.parse, us(tm.Parse))
	acc.add(&acc.lower, us(tm.Lower))

	s = tr.begin("plancache", root, req)
	res, err := w.opt.OptimizeBatch(context.Background(), queries, mqo.Greedy)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}

	s = tr.begin("exec", root, req)
	a0, t0 := allocBytes(), time.Now()
	rows, st, err := exec.Run(context.Background(), w.db, w.opt.Model(), res.Plan, &exec.Env{Profile: true})
	d, alloc := time.Since(t0), allocBytes()-a0
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}
	acc.executed(st, d, alloc)
	return res, rows, st.SimTime, nil
}

// verify compares every recorded answer with exec.Reference on the same
// data.
func (w *ssbExec) verify() (int, error) {
	want := map[int][][]string{}
	for n := 1; n <= ssb.NumFlights; n++ {
		queries, err := sql.ParseBatch(w.opt.Catalog(), ssb.FlightSQL(n))
		if err != nil {
			return 0, err
		}
		for _, q := range queries {
			rows, schema, err := exec.Reference(w.db, q, nil)
			if err != nil {
				return 0, err
			}
			want[n] = append(want[n], exec.Canonicalize(schema, rows))
		}
	}
	wrong := 0
	for _, a := range w.answers {
		if !sameAnswers(a.got, want[a.flight]) {
			wrong++
			fmt.Printf("# flight %d: rows differ from exec.Reference\n", a.flight)
		}
	}
	return wrong, nil
}

// sameAnswers reports whether each query's rows equal the canonical oracle
// rows of the same query.
func sameAnswers(got []exec.QueryResult, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, qr := range got {
		c := exec.Canonicalize(qr.Schema, qr.Rows)
		if len(c) != len(want[i]) {
			return false
		}
		for j := range c {
			if c[j] != want[i][j] {
				return false
			}
		}
	}
	return true
}
