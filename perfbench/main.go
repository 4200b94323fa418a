// Command perfbench is the repository's benchmark: one program that runs a
// named workload against the mqo entry points for a fixed time, checks
// every answer against an oracle computed outside the timing, and prints
// its metrics by name with units. Run it from the repository root:
//
//	bash perfbench/run.sh --workload ssb-exec --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it measures half the time untraced and half through the
// benchmark's own layer-by-layer replay of the same requests, which records
// spans around each call into a layer and prints per-layer metrics. The
// last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets up from scratch; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// workload is one named traffic mix.
type workload interface {
	// setup builds the inputs from seed, opens the session and warms it,
	// replacing any earlier set-up. It returns the data-load time.
	setup(seed int64) (time.Duration, error)
	// measure drives requests for d: through the public API when tr is
	// nil, through the traced layer replay otherwise.
	measure(d time.Duration, tr *tracer) (*window, error)
	// verify checks every answer recorded since setup against the oracle.
	verify() (failed int, err error)
	// provenance describes the workload's sizes and budgets.
	provenance() map[string]any
	close()
}

var workloads = map[string]func() workload{
	"ssb-exec":       func() workload { return &ssbExec{} },
	"paper-optimize": func() workload { return &paperOptimize{} },
	"serve-churn":    func() workload { return &serveChurn{} },
}

// window is what one measured stretch of requests produced.
type window struct {
	lat      []float64 // per-request latency, ms
	requests int       // requests attempted
	errors   int       // requests that returned an error
	queries  int       // queries answered
	planCost float64   // summed estimated plan cost per query
	simIO    float64   // summed simulated I/O time per query
	// segs split the window into passes over the workload's requests, so
	// throughput, CPU and allocation are reported as medians over passes
	// and a burst of load from outside the process moves them less.
	segs  []segment
	cur   segment
	layer map[string]float64
}

type segment struct {
	queries int
	busy    time.Duration // wall time the queries took (qps denominator)
	cpu     time.Duration // process CPU over the measured calls
	alloc   uint64        // heap bytes allocated over the measured calls
}

// answered counts n answered queries of the current segment.
func (w *window) answered(n int) {
	w.queries += n
	w.cur.queries += n
}

// cut closes the current segment.
func (w *window) cut() {
	if w.cur.queries > 0 {
		w.segs = append(w.segs, w.cur)
	}
	w.cur = segment{}
}

// meter measures one stretch of calls: wall, process CPU and allocation.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	allo0 uint64
}

func startMeter() meter { return meter{t0: time.Now(), cpu0: cpuTime(), allo0: allocBytes()} }

// stop adds the stretch to the current segment of w and returns its wall
// time.
func (m meter) stop(w *window) time.Duration {
	d := time.Since(m.t0)
	w.cur.busy += d
	w.cur.cpu += cpuTime() - m.cpu0
	w.cur.alloc += allocBytes() - m.allo0
	return d
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the host's cumulative CPU ticks, all and stolen, from
// the first line of /proc/stat (user, nice, system, idle, iowait, irq,
// softirq, steal; guest time is already inside user and nice); ok is false
// where it cannot.
func hostTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: ssb-exec, paper-optimize or serve-churn")
	seed := flag.Int64("seed", 1, "seed the workload's data and request sequence derive from")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 replays half the run through the traced layer pipeline and prints per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the spans of a traced run are written to")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, d time.Duration, traced bool, traceDir string) (*result, error) {
	defer w.close()
	var setups, loads []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		load, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, load.Seconds())
	}
	runtime.GC()
	steal0, ticks0, stealOK := hostTicks()
	var wins []*window
	if !traced {
		win, err := w.measure(d, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		wins = append(wins, win)
	} else {
		plain, err := w.measure(d/2, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr := newTracer()
		win, err := w.measure(d/2, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		wins = append(wins, plain, win)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Println("# spans written to", path)
		win.layer["obs.trace_overhead_frac"] = ratio(median(win.lat), median(plain.lat)) - 1
		win.layer["storage.load_s"] = median(loads)
	}
	rss := peakRSSMB()
	prov := provenance(name, seed, d, traced, w.provenance())
	// The share of the host's CPU time its hypervisor gave to others over
	// the measured windows: a run that lost much of it reads slow on every
	// wall-clock metric.
	if steal1, ticks1, ok := hostTicks(); ok && stealOK && ticks1 > ticks0 {
		prov["steal_frac"] = float64(steal1-steal0) / float64(ticks1-ticks0)
	} else {
		prov["steal_frac"] = nil
	}
	pb, _ := json.Marshal(prov) // a map of strings and numbers always marshals
	fmt.Println("# provenance", string(pb))

	res := &result{}
	for _, win := range wins {
		res.Attempted += win.requests
		res.Failed += win.errors
	}
	wrong, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", name, err)
	}
	res.Failed += wrong
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("# failed_frac %.6f (%d of %d requests; %d wrong answers)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, wrong)

	if traced {
		res.Metrics, err = emit(perLayer, wins[1].layer)
	} else {
		res.Metrics, err = emit(endToEnd, endToEndValues(wins[0], median(setups), rss))
	}
	if err != nil {
		return nil, err
	}
	printMetrics(res.Metrics)
	return res, nil
}

func endToEndValues(w *window, setup, rss float64) map[string]float64 {
	t := tailOf(w.lat)
	fmt.Printf("# latency_tail_ms %.3f ms: p%.1f of %d requests, %d beyond it\n", t.Value, t.Percentile, t.N, t.Beyond)
	fmt.Printf("# sim_io_s %.6f s (cost model) per query\n", ratio(w.simIO, float64(w.queries)))
	fmt.Printf("# per-query rates are medians over %d passes\n", len(w.segs))
	var qps, cpu, alloc []float64
	for _, s := range w.segs {
		q := float64(s.queries)
		qps = append(qps, q/s.busy.Seconds())
		cpu = append(cpu, ms(s.cpu)/q)
		alloc = append(alloc, float64(s.alloc)/(1<<20)/q)
	}
	return map[string]float64{
		"latency_p50_ms":     median(w.lat),
		"queries_per_s":      median(qps),
		"cpu_ms_per_query":   median(cpu),
		"alloc_mb_per_query": median(alloc),
		"peak_rss_mb":        rss,
		"setup_s":            setup,
		"plan_cost_s":        ratio(w.planCost, float64(w.queries)),
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-36s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func provenance(name string, seed int64, d time.Duration, traced bool, extra map[string]any) map[string]any {
	p := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"setup_reps": setupReps,
	}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

// commit is the VCS revision the binary was built from, when the build saw
// one (a plain source checkout has none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}
