package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Windowed histograms: where Histogram accumulates since reset (useful
// for totals, useless for "p99 over the last minute"), WindowedHistogram
// keeps a ring of time slices and merges the live ones on read, so
// quantiles roll: an observation ages out of the reported distribution
// after at most one window. Observe reads no clock: the caller passes
// the instant its observation ended, which it has already read to
// measure the duration. It is lock-free in the steady state — one atomic
// slot check plus the Histogram's atomic adds; the only lock is a
// per-slice mutex taken once per slice rotation.

// Defaults for registry-created windows and SLO trackers.
const (
	// DefaultWindow is the rolling-window length for registry-created
	// windowed histograms and SLO trackers.
	DefaultWindow = 60 * time.Second
	// DefaultWindowSlices is how many time slices a default window is
	// divided into (slice length = window / slices).
	DefaultWindowSlices = 12
)

// windowSlice is one time slice of the ring: the slot number it
// currently holds (now/sliceDur) plus an atomic histogram of the
// observations that landed in that slot.
type windowSlice struct {
	mu   sync.Mutex // serializes rotation (reset + slot publish)
	slot atomic.Int64
	h    Histogram
}

// rotate resets the slice for a new slot. Double-checked under the
// mutex so concurrent observers rotate once; an observer that raced
// past the check lands its observation in the fresh slot — a one-slice
// attribution skew, acceptable for monitoring.
func (s *windowSlice) rotate(slot int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slot.Load() == slot {
		return
	}
	s.h.reset()
	s.slot.Store(slot)
}

// WindowedHistogram is a rolling-window latency histogram: a ring of
// time-sliced atomic histograms merged on read. A nil
// *WindowedHistogram is a no-op, matching the rest of the package.
type WindowedHistogram struct {
	sliceNS int64
	slices  []windowSlice
	// now is the clock Snapshot reads, injectable for deterministic
	// tests.
	now func() time.Time
}

// NewWindow returns a windowed histogram covering the given window in
// the given number of slices (window minimum 1s, slices clamped to
// [2, 128]).
func NewWindow(window time.Duration, slices int) *WindowedHistogram {
	if window < time.Second {
		window = time.Second
	}
	if slices < 2 {
		slices = 2
	}
	if slices > 128 {
		slices = 128
	}
	w := &WindowedHistogram{
		sliceNS: int64(window) / int64(slices),
		slices:  make([]windowSlice, slices),
		now:     time.Now,
	}
	// Slot 0 is a real slot for clocks near the epoch; park fresh slices
	// at an impossible slot so they never merge before first use.
	for i := range w.slices {
		w.slices[i].slot.Store(-1)
	}
	return w
}

// Window returns the rolling-window length.
func (w *WindowedHistogram) Window() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.sliceNS * int64(len(w.slices)))
}

// Observe records one duration d that ended at end into end's time
// slice.
func (w *WindowedHistogram) Observe(end time.Time, d time.Duration) {
	if w == nil {
		return
	}
	slot := end.UnixNano() / w.sliceNS
	s := &w.slices[int(slot)%len(w.slices)]
	if s.slot.Load() != slot {
		s.rotate(slot)
	}
	s.h.Observe(d)
}

// WindowSnapshot is the merged distribution of the observations inside
// the rolling window at snapshot time.
type WindowSnapshot struct {
	Window time.Duration
	Count  uint64
	Sum    time.Duration
	Min    time.Duration
	Max    time.Duration
	Counts [HistBuckets]uint64
}

// Snapshot merges the live slices (slot within the last len(slices)
// slots, inclusive of the current one) into one distribution.
func (w *WindowedHistogram) Snapshot() WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	return w.SnapshotAt(w.now())
}

// SnapshotAt is Snapshot as of now, for a caller that has just read the
// clock.
func (w *WindowedHistogram) SnapshotAt(now time.Time) WindowSnapshot {
	if w == nil {
		return WindowSnapshot{}
	}
	nowSlot := now.UnixNano() / w.sliceNS
	out := WindowSnapshot{Window: w.Window()}
	minSlot := nowSlot - int64(len(w.slices)) + 1
	for i := range w.slices {
		s := &w.slices[i]
		slot := s.slot.Load()
		if slot < minSlot || slot > nowSlot {
			continue // aged out (or parked): not part of the window
		}
		n := s.h.Count()
		if n == 0 {
			continue
		}
		out.Count += n
		out.Sum += s.h.Sum()
		if mn := s.h.Min(); out.Count == n || mn < out.Min {
			out.Min = mn
		}
		if mx := s.h.Max(); mx > out.Max {
			out.Max = mx
		}
		for b := 0; b < HistBuckets; b++ {
			out.Counts[b] += s.h.counts[b].Load()
		}
	}
	return out
}

// Quantile returns the q-th quantile of the windowed distribution,
// interpolated within its bucket and clamped to the observed extrema.
func (s WindowSnapshot) Quantile(q float64) time.Duration {
	return quantileOf(&s.Counts, s.Count, s.Min, s.Max, q)
}

// Mean returns the average observation in the window (0 when empty).
func (s WindowSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Rate returns observations per second over the window.
func (s WindowSnapshot) Rate() float64 {
	if s.Window <= 0 {
		return 0
	}
	return float64(s.Count) / s.Window.Seconds()
}
