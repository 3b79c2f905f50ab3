// Package insights maintains per-statement query digests: every
// operation the DB facade runs is folded into a record keyed by its
// AST fingerprint (the same structural key the plan cache uses), so a
// workload of millions of calls condenses into one entry per query
// *shape* — with call/error/degraded counts, a rolling-window latency
// histogram, plan-cache outcome tallies, and the per-operation resource
// accounting the evaluator threads through core.Answer/ExecResult.
//
// The store is lock-cheap on the hot path: one RWMutex read-lock to
// find the entry (a write lock only the first time a shape is seen)
// plus atomic adds; the windowed histogram is the same lock-free
// structure the engine's telemetry uses. Slow-query capture is the
// rare path — when an observation crosses the absolute threshold or a
// self-relative multiple of the digest's own windowed p50, the
// configured capture source attaches the correlated trace tree and a
// flight-recorder excerpt to a bounded per-digest exemplar ring.
package insights

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idl/internal/obs"
	"idl/internal/qlog"
)

// Defaults for Config zero values.
const (
	DefaultMaxDigests   = 512
	DefaultMaxExemplars = 4
	DefaultMinSamples   = 32
	DefaultSlowFactor   = 0 // self-relative capture off unless configured
)

// Config tunes a Store. The zero value selects the noted defaults;
// capture is disabled until SlowThreshold or SlowFactor is set.
type Config struct {
	// MaxDigests bounds the number of distinct statement shapes tracked;
	// observations of new shapes beyond the bound are counted in
	// Dropped() and otherwise ignored. Default 512.
	MaxDigests int
	// MaxExemplars bounds each digest's slow-exemplar ring (oldest
	// evicted). Default 4.
	MaxExemplars int
	// SlowThreshold captures an exemplar whenever an observation takes at
	// least this long. 0 disables the absolute rule.
	SlowThreshold time.Duration
	// SlowFactor captures when an observation takes at least
	// SlowFactor × the digest's own windowed p50 — an adaptive rule that
	// flags a statement degrading relative to itself. 0 disables it.
	SlowFactor float64
	// MinSamples is how many windowed observations a digest needs before
	// the self-relative rule applies (a p50 over two samples is noise).
	// Default 32.
	MinSamples uint64
	// Window / WindowSlices configure the per-digest latency window.
	// Defaults obs.DefaultWindow / obs.DefaultWindowSlices.
	Window       time.Duration
	WindowSlices int
}

func (c Config) withDefaults() Config {
	if c.MaxDigests <= 0 {
		c.MaxDigests = DefaultMaxDigests
	}
	if c.MaxExemplars <= 0 {
		c.MaxExemplars = DefaultMaxExemplars
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Window <= 0 {
		c.Window = obs.DefaultWindow
	}
	if c.WindowSlices <= 0 {
		c.WindowSlices = obs.DefaultWindowSlices
	}
	return c
}

// Resources is the per-operation resource record a digest accumulates.
// The core evaluator fills the scan/emit/fixpoint fields; the facade
// adds federation fetches and WAL bytes.
type Resources struct {
	RowsScanned    uint64 `json:"rows_scanned"`
	TuplesEmitted  uint64 `json:"tuples_emitted"`
	FixpointRounds uint64 `json:"fixpoint_rounds"`
	IndexBuilds    uint64 `json:"index_builds"`
	IndexProbes    uint64 `json:"index_probes"`
	FedFetches     uint64 `json:"federation_fetches"`
	WALBytes       uint64 `json:"wal_bytes"`
}

// Observation is one finished operation as the facade reports it.
type Observation struct {
	Fingerprint uint64
	Kind        string // "query", "exec", "call"
	// Text renders the canonical statement. It is a thunk, not a
	// string, because it is only invoked the first time a shape is
	// seen — the steady-state observe path never pays for rendering.
	Text     func() string
	Duration time.Duration
	// End is the instant the operation ended, read by the same clock
	// reading that measured Duration; it places the observation in the
	// digest's latency window, which reads no clock of its own.
	End       time.Time
	Err       bool
	Degraded  bool
	PlanCache string // "", "hit", "stale", "miss", "cold"
	TraceID   string
	Resources Resources
}

// Exemplar is one captured slow execution of a statement shape: the
// facade-minted trace ID (joining the qlog event, journal record, and
// WAL commit spans), the correlated span tree when tracing was on, and
// a flight-recorder excerpt leading up to the capture.
type Exemplar struct {
	TraceID    string        `json:"trace_id,omitempty"`
	When       time.Time     `json:"when"`
	DurationNS int64         `json:"duration_ns"`
	Trace      *obs.Span     `json:"trace,omitempty"`
	Events     []*qlog.Event `json:"events,omitempty"`
}

// CaptureSource materializes an exemplar's context for a trace ID: the
// matching retained span tree (nil when tracing is off or the span
// aged out) and a recent-events excerpt.
type CaptureSource func(traceID string) (*obs.Span, []*qlog.Event)

// entry is one statement shape's live record. Counters are atomics so
// Observe never locks it; the exemplar ring has its own mutex, taken
// only on the (rare) capture path and on snapshot reads.
type entry struct {
	fp   uint64
	kind string
	text string

	calls    atomic.Uint64
	errors   atomic.Uint64
	degraded atomic.Uint64
	totalNS  atomic.Int64

	planHit   atomic.Uint64
	planStale atomic.Uint64
	planMiss  atomic.Uint64
	planCold  atomic.Uint64

	rowsScanned    atomic.Uint64
	tuplesEmitted  atomic.Uint64
	fixpointRounds atomic.Uint64
	indexBuilds    atomic.Uint64
	indexProbes    atomic.Uint64
	fedFetches     atomic.Uint64
	walBytes       atomic.Uint64

	lat *obs.WindowedHistogram
	// p50 is lat's median for the self-relative capture rule, taken
	// once per time slice (medianAt) rather than merged per observation.
	p50 atomic.Pointer[sliceMedian]

	exMu      sync.Mutex
	exemplars []Exemplar
	captures  uint64
}

func (e *entry) observe(o Observation) {
	e.calls.Add(1)
	if o.Err {
		e.errors.Add(1)
	}
	if o.Degraded {
		e.degraded.Add(1)
	}
	e.totalNS.Add(int64(o.Duration))
	switch o.PlanCache {
	case "hit":
		e.planHit.Add(1)
	case "stale":
		e.planStale.Add(1)
	case "miss":
		e.planMiss.Add(1)
	case "cold":
		e.planCold.Add(1)
	}
	r := o.Resources
	if r.RowsScanned > 0 {
		e.rowsScanned.Add(r.RowsScanned)
	}
	if r.TuplesEmitted > 0 {
		e.tuplesEmitted.Add(r.TuplesEmitted)
	}
	if r.FixpointRounds > 0 {
		e.fixpointRounds.Add(r.FixpointRounds)
	}
	if r.IndexBuilds > 0 {
		e.indexBuilds.Add(r.IndexBuilds)
	}
	if r.IndexProbes > 0 {
		e.indexProbes.Add(r.IndexProbes)
	}
	if r.FedFetches > 0 {
		e.fedFetches.Add(r.FedFetches)
	}
	if r.WALBytes > 0 {
		e.walBytes.Add(r.WALBytes)
	}
	e.lat.Observe(o.End, o.Duration)
}

// Digest is a point-in-time snapshot of one statement shape's record.
type Digest struct {
	Fingerprint string    `json:"fingerprint"` // 16-hex AST fingerprint
	Kind        string    `json:"kind"`
	Text        string    `json:"text"`
	Calls       uint64    `json:"calls"`
	Errors      uint64    `json:"errors"`
	Degraded    uint64    `json:"degraded"`
	TotalNS     int64     `json:"total_ns"`
	MeanNS      int64     `json:"mean_ns"`
	PlanHit     uint64    `json:"plan_hit"`
	PlanStale   uint64    `json:"plan_stale"`
	PlanMiss    uint64    `json:"plan_miss"`
	PlanCold    uint64    `json:"plan_cold"`
	Resources   Resources `json:"resources"`
	WindowCount uint64    `json:"window_count"`
	RatePerSec  float64   `json:"rate_per_sec"`
	P50NS       int64     `json:"p50_ns"`
	P99NS       int64     `json:"p99_ns"`
	Captures    uint64    `json:"captures"`
	Exemplars   int       `json:"exemplars"`

	fp uint64
}

// FP returns the numeric fingerprint backing the hex rendering.
func (d Digest) FP() uint64 { return d.fp }

// Store is the statement-digest accumulator.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	entries map[uint64]*entry
	capture CaptureSource

	dropped atomic.Uint64
}

// New returns an empty store with cfg (zero fields defaulted).
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), entries: make(map[uint64]*entry)}
}

// Config returns the store's effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// SetCaptureSource installs the slow-exemplar context source (nil:
// exemplars carry only trace ID and duration).
func (s *Store) SetCaptureSource(fn CaptureSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capture = fn
}

// Dropped reports observations of new statement shapes discarded
// because the MaxDigests bound was reached.
func (s *Store) Dropped() uint64 { return s.dropped.Load() }

// CaptureEnabled reports whether the capture policy can ever fire.
// When both rules are off, callers need not mint per-operation trace
// IDs on the store's behalf — no exemplar will want one.
func (s *Store) CaptureEnabled() bool {
	return s.cfg.SlowThreshold > 0 || s.cfg.SlowFactor > 0
}

// Len returns the number of tracked statement shapes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Reset drops every digest, exemplar, and the dropped counter.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[uint64]*entry)
	s.dropped.Store(0)
}

// Observe folds one finished operation into its digest, capturing a
// slow exemplar when the observation crosses the configured absolute
// or self-relative threshold.
func (s *Store) Observe(o Observation) {
	e := s.entryFor(o)
	if e == nil {
		return
	}
	e.observe(o)
	if s.isSlow(e, o) {
		s.captureExemplar(e, o)
	}
}

// entryFor finds or creates the digest entry: a read-lock map hit in
// the steady state, a write-lock insert the first time a shape is seen.
func (s *Store) entryFor(o Observation) *entry {
	s.mu.RLock()
	e := s.entries[o.Fingerprint]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.entries[o.Fingerprint]; e != nil {
		return e
	}
	if len(s.entries) >= s.cfg.MaxDigests {
		s.dropped.Add(1)
		return nil
	}
	e = &entry{
		fp:   o.Fingerprint,
		kind: o.Kind,
		lat:  obs.NewWindow(s.cfg.Window, s.cfg.WindowSlices),
	}
	if o.Text != nil {
		e.text = o.Text()
	}
	s.entries[o.Fingerprint] = e
	return e
}

// isSlow applies the capture policy. With both rules disabled it costs
// two compares, so the digests-only configuration stays at benchmark
// parity with capture off.
func (s *Store) isSlow(e *entry, o Observation) bool {
	if abs := s.cfg.SlowThreshold; abs > 0 && o.Duration >= abs {
		return true
	}
	if f := s.cfg.SlowFactor; f > 0 {
		if p50 := e.medianAt(o.End, s.cfg.MinSamples); p50 > 0 && float64(o.Duration) >= f*float64(p50) {
			return true
		}
	}
	return false
}

// sliceMedian is a digest's windowed p50 as taken in one time slice.
type sliceMedian struct {
	slot int64
	p50  time.Duration
}

// medianAt returns the digest's windowed p50 as of end, or 0 while the
// window holds fewer than min observations. The window is merged once
// per slice: the first observation in a newer slice than the cached
// median's takes it again, and the rest of the slice reuses it.
func (e *entry) medianAt(end time.Time, min uint64) time.Duration {
	slot := e.lat.Slot(end)
	if m := e.p50.Load(); m != nil && m.slot >= slot {
		return m.p50
	}
	ws := e.lat.SnapshotAt(end)
	if ws.Count < min {
		return 0
	}
	m := &sliceMedian{slot: slot, p50: ws.Quantile(0.50)}
	e.p50.Store(m)
	return m.p50
}

func (s *Store) captureExemplar(e *entry, o Observation) {
	s.mu.RLock()
	fn := s.capture
	s.mu.RUnlock()
	ex := Exemplar{TraceID: o.TraceID, When: o.End, DurationNS: int64(o.Duration)}
	if fn != nil {
		ex.Trace, ex.Events = fn(o.TraceID)
	}
	e.exMu.Lock()
	defer e.exMu.Unlock()
	e.captures++
	if len(e.exemplars) >= s.cfg.MaxExemplars {
		drop := len(e.exemplars) - s.cfg.MaxExemplars + 1
		copy(e.exemplars, e.exemplars[drop:])
		e.exemplars = e.exemplars[:s.cfg.MaxExemplars-1]
	}
	e.exemplars = append(e.exemplars, ex)
}

func (e *entry) snapshot() Digest {
	ws := e.lat.Snapshot()
	d := Digest{
		Fingerprint: FingerprintHex(e.fp),
		Kind:        e.kind,
		Text:        e.text,
		Calls:       e.calls.Load(),
		Errors:      e.errors.Load(),
		Degraded:    e.degraded.Load(),
		TotalNS:     e.totalNS.Load(),
		PlanHit:     e.planHit.Load(),
		PlanStale:   e.planStale.Load(),
		PlanMiss:    e.planMiss.Load(),
		PlanCold:    e.planCold.Load(),
		Resources: Resources{
			RowsScanned:    e.rowsScanned.Load(),
			TuplesEmitted:  e.tuplesEmitted.Load(),
			FixpointRounds: e.fixpointRounds.Load(),
			IndexBuilds:    e.indexBuilds.Load(),
			IndexProbes:    e.indexProbes.Load(),
			FedFetches:     e.fedFetches.Load(),
			WALBytes:       e.walBytes.Load(),
		},
		WindowCount: ws.Count,
		RatePerSec:  ws.Rate(),
		P50NS:       int64(ws.Quantile(0.50)),
		P99NS:       int64(ws.Quantile(0.99)),
		fp:          e.fp,
	}
	if d.Calls > 0 {
		d.MeanNS = d.TotalNS / int64(d.Calls)
	}
	e.exMu.Lock()
	d.Captures = e.captures
	d.Exemplars = len(e.exemplars)
	e.exMu.Unlock()
	return d
}

// Digests snapshots every tracked shape, ordered by descending total
// time with the fingerprint as a deterministic tiebreak.
func (s *Store) Digests() []Digest {
	s.mu.RLock()
	ents := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		ents = append(ents, e)
	}
	s.mu.RUnlock()
	out := make([]Digest, len(ents))
	for i, e := range ents {
		out[i] = e.snapshot()
	}
	sortDigests(out, "time")
	return out
}

// TopKeys are the orderings Top accepts.
var TopKeys = []string{"calls", "p99", "rows", "time"}

// Top snapshots the k highest digests by the given key: "calls" (call
// count), "p99" (windowed 99th-percentile latency), "rows" (rows
// scanned), or "time" (total evaluation time). k <= 0 means all.
func (s *Store) Top(k int, by string) ([]Digest, error) {
	switch by {
	case "calls", "p99", "rows", "time":
	default:
		return nil, fmt.Errorf("insights: unknown ordering %q (want calls, p99, rows, or time)", by)
	}
	all := s.Digests()
	sortDigests(all, by)
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all, nil
}

func sortDigests(ds []Digest, by string) {
	key := func(d Digest) uint64 {
		switch by {
		case "calls":
			return d.Calls
		case "p99":
			return uint64(d.P99NS)
		case "rows":
			return d.Resources.RowsScanned
		default: // time
			return uint64(d.TotalNS)
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		ki, kj := key(ds[i]), key(ds[j])
		if ki != kj {
			return ki > kj
		}
		return ds[i].fp < ds[j].fp
	})
}

// Get snapshots one digest and its captured exemplars (oldest first).
func (s *Store) Get(fp uint64) (Digest, []Exemplar, bool) {
	s.mu.RLock()
	e := s.entries[fp]
	s.mu.RUnlock()
	if e == nil {
		return Digest{}, nil, false
	}
	d := e.snapshot()
	e.exMu.Lock()
	exs := append([]Exemplar(nil), e.exemplars...)
	e.exMu.Unlock()
	return d, exs, true
}

// FingerprintHex renders a fingerprint the way every surface prints it.
func FingerprintHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFingerprint inverts FingerprintHex.
func ParseFingerprint(s string) (uint64, error) {
	var fp uint64
	if _, err := fmt.Sscanf(s, "%x", &fp); err != nil || len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("insights: malformed fingerprint %q (want up to 16 hex digits)", s)
	}
	return fp, nil
}
