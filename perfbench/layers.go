package main

import (
	"strings"
	"sync"
	"time"

	"mqo/internal/core"
	"mqo/internal/exec"
)

// layerAcc accumulates what a traced window observes at each layer
// boundary. Workloads add to it from any goroutine.
type layerAcc struct {
	mu sync.Mutex

	queueWait   []float64 // ms per query (server)
	parse       []float64 // us per request (sql)
	lower       []float64 // us per request (sql)
	dagBuild    []float64 // ms per batch
	groups      []float64 // logical groups per batch
	nodes       []float64 // physical nodes per batch
	search      []float64 // ms per core.Optimize call
	phases      map[string]float64
	benefit     float64
	propagate   float64
	waves       float64
	qerr        []float64
	arm, commit []float64 // us per batch (cache)
	execRun     []float64 // ms per exec.Run
	execAlloc   uint64
	opSelf      map[string]time.Duration
	pageReads   int64
	poolHits    int64
	simIO       float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{phases: map[string]float64{}, opSelf: map[string]time.Duration{}}
}

// optimized records one core.Optimize call.
func (a *layerAcc) optimized(res *core.Result, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := res.Stats
	a.search = append(a.search, ms(d))
	a.groups = append(a.groups, float64(st.DAGGroups))
	a.nodes = append(a.nodes, float64(st.PhysNodes))
	for ph, t := range st.Phases {
		a.phases[ph] += ms(t)
	}
	a.benefit += float64(st.BenefitRecomputations)
	a.propagate += float64(st.CostPropagations)
	a.waves += float64(st.EvalWaves)
}

// executed records one exec.Run call and walks its operator profile.
func (a *layerAcc) executed(st exec.RunStats, d time.Duration, alloc uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.execRun = append(a.execRun, ms(d))
	a.execAlloc += alloc
	a.pageReads += st.IO.Reads
	a.poolHits += st.IO.Hits
	a.simIO += st.SimTime
	if st.Profile == nil {
		return
	}
	st.Profile.Visit(func(p *exec.NodeProfile) {
		self := p.Wall
		for _, c := range p.Children {
			self -= c.Wall
		}
		a.opSelf[opKind(p.Op)] += self
		a.qerr = append(a.qerr, qerror(p.EstRows, p.Rows))
	})
}

// opKind folds a profile label ("CacheScan(rc3)@warm", "TempScan(t7)") to
// one of execKinds.
func opKind(op string) string {
	if i := strings.IndexByte(op, '('); i >= 0 {
		op = op[:i]
	}
	for _, k := range execKinds {
		if k == op {
			return k
		}
	}
	return "Other"
}

func (a *layerAcc) add(dst *[]float64, v float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	*dst = append(*dst, v)
}

// values turns the accumulator, the window's spans and its query count
// into the per-layer metrics. Counters only a workload can read (plan- and
// result-cache statistics, batcher statistics) it sets afterwards.
func (a *layerAcc) values(spans []span, queries, batches int) map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := float64(queries)
	n := float64(len(a.search))
	v := map[string]float64{
		"server.queue_wait_ms_p50":     median(a.queueWait),
		"server.batch_size_mean":       ratio(q, float64(batches)),
		"server.batches_per_kq":        1000 * ratio(float64(batches), q),
		"sql.parse_us_p50":             median(a.parse),
		"sql.lower_us_p50":             median(a.lower),
		"dag.build_ms_p50":             median(a.dagBuild),
		"dag.groups":                   ratio(sum(a.groups), n),
		"physical.nodes":               ratio(sum(a.nodes), n),
		"core.search_ms_p50":           median(a.search),
		"core.search_ms_tail":          tailOf(a.search).Value,
		"core.benefit_recomputations":  ratio(a.benefit, n),
		"core.cost_propagations":       ratio(a.propagate, n),
		"core.eval_waves":              ratio(a.waves, n),
		"cost.rows_qerror_p50":         median(a.qerr),
		"cost.rows_qerror_max":         maxOf(a.qerr),
		"cache.arm_us_p50":             median(a.arm),
		"cache.commit_us_p50":          median(a.commit),
		"exec.run_ms_p50":              median(a.execRun),
		"exec.alloc_mb_per_batch":      ratio(float64(a.execAlloc)/(1<<20), float64(len(a.execRun))),
		"storage.page_reads_per_query": ratio(float64(a.pageReads), q),
		"storage.pool_hit_ratio":       ratio(float64(a.poolHits), float64(a.poolHits+a.pageReads)),
		"storage.sim_io_s_per_query":   ratio(a.simIO, q),
	}
	for _, ph := range []string{core.OptPhaseSharability, core.OptPhaseCandidates, core.OptPhaseWaves, core.OptPhaseCommit} {
		v["core.phase_ms."+ph] = ratio(a.phases[ph], n)
	}
	for _, k := range execKinds {
		v["exec.self_ms."+k] = ratio(ms(a.opSelf[k]), q)
	}
	self := selfTimes(spans)
	for _, l := range []string{"server", "sql", "plancache", "dag", "core", "cache", "exec"} {
		v[l+".self_ms_per_query"] = ratio(ms(self[l]), q)
	}
	// Layers the workload's requests never reach read 0; the workload
	// overwrites the cache- and plan-cache ratios it can measure.
	for _, k := range []string{"plancache.hit_ratio", "cache.hit_ratio", "cache.spools_per_kq"} {
		v[k] = 0
	}
	return v
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
