package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// SLO tracking: a target latency plus an availability objective (the
// fraction of operations that must finish under the target without an
// error). The tracker counts good and bad operations over a rolling
// window and reports the error-budget burn rate — how fast the window's
// bad fraction is consuming the budget the objective allows. Burn 1.0
// means "exactly on budget"; sustained burn above 1 means the SLO will
// be violated if the window's behavior continues.

// Default SLO parameters for registry-created trackers.
const (
	// DefaultSLOTarget is the latency above which an operation counts
	// against the error budget.
	DefaultSLOTarget = 100 * time.Millisecond
	// DefaultSLOObjective is the fraction of operations that must be
	// good (fast and error-free).
	DefaultSLOObjective = 0.999
)

// counterSlice is one time slice of a windowed counter.
type counterSlice struct {
	slotGate
	n atomic.Uint64
}

func (s *counterSlice) reset() { s.n.Store(0) }

// windowedCounter counts events over a rolling window using the same
// slot-ring discipline as WindowedHistogram.
type windowedCounter struct {
	sliceNS int64
	slices  []counterSlice
}

func newWindowedCounter(window time.Duration, slices int) *windowedCounter {
	if window < time.Second {
		window = time.Second
	}
	if slices < 2 {
		slices = 2
	}
	w := &windowedCounter{sliceNS: int64(window) / int64(slices), slices: make([]counterSlice, slices)}
	for i := range w.slices {
		w.slices[i].slot.Store(parkedSlot)
	}
	return w
}

func (w *windowedCounter) inc(now time.Time) {
	slot := now.UnixNano() / w.sliceNS
	s := &w.slices[int(slot)%len(w.slices)]
	if s.admit(slot, s.reset) {
		s.n.Add(1)
	}
}

func (w *windowedCounter) total(now time.Time) uint64 {
	nowSlot := now.UnixNano() / w.sliceNS
	minSlot := nowSlot - int64(len(w.slices)) + 1
	var sum uint64
	for i := range w.slices {
		s := &w.slices[i]
		slot := s.slot.Load()
		if slot >= minSlot && slot <= nowSlot {
			sum += s.n.Load()
		}
	}
	return sum
}

// SLOTracker classifies operations against a latency target and an
// availability objective over a rolling window. A nil *SLOTracker is a
// no-op.
type SLOTracker struct {
	name      string
	window    time.Duration
	targetNS  atomic.Int64
	objective atomic.Uint64 // math.Float64bits
	total     *windowedCounter
	bad       *windowedCounter
	now       func() time.Time // the clock Status reads; injectable for tests
}

// NewSLO returns a tracker for the named operation: observations slower
// than target (or erroring) count against the error budget 1-objective.
func NewSLO(name string, target time.Duration, objective float64, window time.Duration, slices int) *SLOTracker {
	if objective <= 0 || objective >= 1 {
		objective = DefaultSLOObjective
	}
	if target <= 0 {
		target = DefaultSLOTarget
	}
	t := &SLOTracker{
		name:   name,
		window: window,
		total:  newWindowedCounter(window, slices),
		bad:    newWindowedCounter(window, slices),
		now:    time.Now,
	}
	t.targetNS.Store(int64(target))
	t.objective.Store(math.Float64bits(objective))
	return t
}

// Name returns the tracked operation's name.
func (t *SLOTracker) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetTarget changes the latency target at runtime.
func (t *SLOTracker) SetTarget(d time.Duration) {
	if t != nil && d > 0 {
		t.targetNS.Store(int64(d))
	}
}

// SetObjective changes the availability objective (0 < o < 1).
func (t *SLOTracker) SetObjective(o float64) {
	if t != nil && o > 0 && o < 1 {
		t.objective.Store(math.Float64bits(o))
	}
}

// Observe classifies one operation that took d and ended at end: bad
// when it errored or exceeded the latency target. It reads no clock.
func (t *SLOTracker) Observe(end time.Time, d time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.total.inc(end)
	if failed || int64(d) > t.targetNS.Load() {
		t.bad.inc(end)
	}
}

// SLOStatus is a tracker's point-in-time report.
type SLOStatus struct {
	Name        string        `json:"name"`
	TargetNS    int64         `json:"target_ns"`
	Objective   float64       `json:"objective"`
	WindowNS    int64         `json:"window_ns"`
	Total       uint64        `json:"total"`
	Bad         uint64        `json:"bad"`
	BadFraction float64       `json:"bad_fraction"`
	BurnRate    float64       `json:"burn_rate"`
	Healthy     bool          `json:"healthy"`
	Target      time.Duration `json:"-"`
	Window      time.Duration `json:"-"`
}

// Status reports the window's counts and burn rate. An empty window is
// healthy: no traffic burns no budget.
func (t *SLOTracker) Status() SLOStatus {
	if t == nil {
		return SLOStatus{Healthy: true}
	}
	now := t.now()
	target := time.Duration(t.targetNS.Load())
	obj := math.Float64frombits(t.objective.Load())
	st := SLOStatus{
		Name:      t.name,
		TargetNS:  int64(target),
		Target:    target,
		Objective: obj,
		WindowNS:  int64(t.window),
		Window:    t.window,
		Total:     t.total.total(now),
		Bad:       t.bad.total(now),
	}
	if st.Total > 0 {
		st.BadFraction = float64(st.Bad) / float64(st.Total)
		st.BurnRate = st.BadFraction / (1 - obj)
	}
	st.Healthy = st.BurnRate <= 1
	return st
}

// String renders the status as a one-liner for health commands.
func (s SLOStatus) String() string {
	state := "ok"
	if !s.Healthy {
		state = "BURNING"
	}
	return fmt.Sprintf("slo %s: target=%s objective=%.4g window=%s bad=%d/%d burn=%.2f %s",
		s.Name, s.Target, s.Objective, s.Window, s.Bad, s.Total, s.BurnRate, state)
}
