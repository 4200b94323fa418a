package obs

import (
	"sync"
	"time"
)

// SampleKind classifies a CostSample.
type SampleKind int

const (
	// ScanSample is a measured read of a stored table (base, temp or
	// cached): the real cost of serving the expression from storage.
	ScanSample SampleKind = iota
	// RecomputeSample is a measured computation of a materialized
	// intermediate: the real cost the result cache saves when it can
	// answer the same fingerprint from a spooled table.
	RecomputeSample
)

// String names the kind.
func (k SampleKind) String() string {
	if k == RecomputeSample {
		return "recompute"
	}
	return "scan"
}

// CostSample is one measured cost observation from an executed plan: the
// typed stream a cost-feedback or cache-admission control loop can
// consume. Key is the table name for ScanSample and the canonical
// logical fingerprint (or node tag when no fingerprint is available) for
// RecomputeSample.
type CostSample struct {
	Kind  SampleKind
	Key   string
	Rows  int64
	Bytes int64
	Wall  time.Duration
	// SimS is the sample's simulated cost-model seconds, comparable to
	// the optimizer's cost estimates.
	SimS float64
}

// CostFeed is a bounded ring of CostSamples with an optional subscriber.
// Publish is mutex-guarded but runs once per plan node per executed batch —
// never per row — so it is not a hot path.
type CostFeed struct {
	mu      sync.Mutex
	ring    []CostSample
	next    int
	full    bool
	sub     func(CostSample)
	dropped int64
}

// costFeedCap bounds the retained sample window.
const costFeedCap = 1024

// defaultFeed is the process-wide cost feed.
var defaultFeed = &CostFeed{ring: make([]CostSample, costFeedCap)}

// Costs returns the process-wide cost feed.
func Costs() *CostFeed { return defaultFeed }

// Publish appends a sample (oldest dropped when full) and invokes the
// subscriber, if any, synchronously.
func (f *CostFeed) Publish(s CostSample) {
	if !enabled.Load() {
		return
	}
	f.mu.Lock()
	if f.full {
		f.dropped++
	}
	f.ring[f.next] = s
	f.next = (f.next + 1) % len(f.ring)
	if f.next == 0 {
		f.full = true
	}
	sub := f.sub
	f.mu.Unlock()
	if sub != nil {
		sub(s)
	}
}

// Subscribe installs fn to be called synchronously on every Publish
// (nil uninstalls). One subscriber at a time: the upcoming feedback loop.
func (f *CostFeed) Subscribe(fn func(CostSample)) {
	f.mu.Lock()
	f.sub = fn
	f.mu.Unlock()
}

// Snapshot returns the retained samples, oldest first.
func (f *CostFeed) Snapshot() []CostSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]CostSample(nil), f.ring[:f.next]...)
	}
	out := make([]CostSample, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}
