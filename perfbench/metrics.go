package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it. The lists below
// are the single source of the names the benchmark prints; the tests check
// BENCHMARK.json against them.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics every untraced run prints, on every workload.
// latency_tail_ms, sim_io_s and failed_frac are printed on "#" lines
// instead: the tail moved by over a third between runs when the host was
// busy, sim_io_s is 0 on paper-optimize, and failed_frac is 0 on every
// accepted run.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"cpu_ms_per_query", "ms", "lower"},
	{"alloc_mb_per_query", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"plan_cost_s", "model_s", "lower"},
}

// execKinds are the operator kinds whose self time the traced run reports.
// Profile labels map onto them by opKind.
var execKinds = []string{
	"SeqScan", "BaseIndex", "IndexSelect", "Filter", "Project", "BNLJoin",
	"MergeJoin", "IndexJoin", "SortAgg", "ScalarAgg", "Sort", "IndexBuild",
	"Invoke", "InvokePartial", "CacheScan", "TempScan", "Other",
}

// perLayer are the metrics every traced run prints, on every workload. A
// layer that a workload bypasses reads 0 there (perfbench/targets.json
// lists which layers each workload loads).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"server.queue_wait_ms_p50", "ms", "lower"},
		{"server.batch_size_mean", "count", "higher"},
		{"server.batches_per_kq", "count", "lower"},
		{"server.self_ms_per_query", "ms", "lower"},
		{"sql.parse_us_p50", "us", "lower"},
		{"sql.lower_us_p50", "us", "lower"},
		{"sql.self_ms_per_query", "ms", "lower"},
		{"plancache.hit_ratio", "ratio", "higher"},
		{"plancache.self_ms_per_query", "ms", "lower"},
		{"dag.build_ms_p50", "ms", "lower"},
		{"dag.groups", "count", "lower"},
		{"physical.nodes", "count", "lower"},
		{"dag.self_ms_per_query", "ms", "lower"},
		{"core.search_ms_p50", "ms", "lower"},
		{"core.search_ms_tail", "ms", "lower"},
		{"core.phase_ms.sharability", "ms", "lower"},
		{"core.phase_ms.candidates", "ms", "lower"},
		{"core.phase_ms.waves", "ms", "lower"},
		{"core.phase_ms.commit", "ms", "lower"},
		{"core.benefit_recomputations", "count", "lower"},
		{"core.cost_propagations", "count", "lower"},
		{"core.eval_waves", "count", "lower"},
		{"core.self_ms_per_query", "ms", "lower"},
		{"cost.rows_qerror_p50", "ratio", "lower"},
		{"cost.rows_qerror_max", "ratio", "lower"},
		{"cache.arm_us_p50", "us", "lower"},
		{"cache.commit_us_p50", "us", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"cache.spools_per_kq", "count", "lower"},
		{"cache.self_ms_per_query", "ms", "lower"},
		{"exec.run_ms_p50", "ms", "lower"},
		{"exec.alloc_mb_per_batch", "MB", "lower"},
		{"exec.self_ms_per_query", "ms", "lower"},
	}
	for _, k := range execKinds {
		m = append(m, metricSpec{"exec.self_ms." + k, "ms", "lower"})
	}
	return append(m,
		metricSpec{"storage.page_reads_per_query", "count", "lower"},
		metricSpec{"storage.pool_hit_ratio", "ratio", "higher"},
		metricSpec{"storage.sim_io_s_per_query", "model_s", "lower"},
		metricSpec{"storage.load_s", "s", "lower"},
		metricSpec{"obs.trace_overhead_frac", "ratio", "lower"},
	)
}()

// validName is the metric-name charset BENCHMARK.json allows.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit fills out with the named metrics of specs, failing on a name the
// measurement did not produce, so a workload can never silently drop one.
func emit(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// tail is the highest percentile of a sample that still has at least ten
// samples beyond it: the value at sorted index n-11, reported with the
// percentile that index stands for. With ten or fewer samples no such
// percentile exists and tail falls back to the maximum, with beyond < 10.
type tail struct {
	Value      float64
	Percentile float64 // share of samples at or below Value, in percent
	Beyond     int     // samples strictly above Value's rank
	N          int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Beyond: n - 1 - i, N: n}
}

// median is the middle of xs (mean of the two middle values for even n);
// 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// qerror is the cardinality-estimate error of one operator: the factor by
// which the estimate missed the actual row count, both clamped to at
// least one row so empty results stay finite.
func qerror(est float64, actual int64) float64 {
	e, a := math.Max(est, 1), math.Max(float64(actual), 1)
	return math.Max(e/a, a/e)
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
