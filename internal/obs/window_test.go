package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable clock for deterministic window tests.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) now() time.Time      { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) set(d time.Duration) { c.ns.Store(int64(d)) }

func newTestWindow(window time.Duration, slices int) (*WindowedHistogram, *fakeClock) {
	clk := &fakeClock{}
	clk.set(10 * window) // start well past the epoch so slot 0 is stale
	w := NewWindow(window, slices)
	w.now = clk.now
	return w, clk
}

func TestWindowedHistogramRolls(t *testing.T) {
	w, clk := newTestWindow(12*time.Second, 12) // 1s slices
	if w.Window() != 12*time.Second {
		t.Fatalf("Window = %v, want 12s", w.Window())
	}

	// 10 observations in the current slice.
	for i := 0; i < 10; i++ {
		w.Observe(clk.now(), time.Millisecond)
	}
	s := w.Snapshot()
	if s.Count != 10 || s.Min != time.Millisecond || s.Max != time.Millisecond {
		t.Fatalf("snapshot = count %d min %v max %v, want 10/1ms/1ms", s.Count, s.Min, s.Max)
	}

	// Five slices later, add slower observations: both batches visible.
	clk.set(120*time.Second + 5*time.Second)
	for i := 0; i < 5; i++ {
		w.Observe(clk.now(), 50*time.Millisecond)
	}
	s = w.Snapshot()
	if s.Count != 15 {
		t.Fatalf("mid-window count = %d, want 15", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 50*time.Millisecond {
		t.Fatalf("mid-window min/max = %v/%v", s.Min, s.Max)
	}
	if got := s.Quantile(0.999); got != 50*time.Millisecond {
		t.Fatalf("p999 = %v, want 50ms (clamped to max)", got)
	}

	// Advance until the first batch ages out: only the slow batch remains.
	clk.set(120*time.Second + 13*time.Second)
	s = w.Snapshot()
	if s.Count != 5 || s.Min != 50*time.Millisecond {
		t.Fatalf("aged snapshot = count %d min %v, want 5/50ms", s.Count, s.Min)
	}

	// Advance a full window: everything aged out.
	clk.set(120*time.Second + 30*time.Second)
	s = w.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty window: count=%d p99=%v mean=%v", s.Count, s.Quantile(0.99), s.Mean())
	}
}

func TestWindowedHistogramSliceReuse(t *testing.T) {
	w, clk := newTestWindow(4*time.Second, 4) // 1s slices
	base := 40 * time.Second
	clk.set(base)
	w.Observe(clk.now(), time.Millisecond)
	// Wrap the ring: same slice index, new slot → old data must be gone.
	clk.set(base + 4*time.Second)
	w.Observe(clk.now(), 2*time.Millisecond)
	s := w.Snapshot()
	if s.Count != 1 || s.Min != 2*time.Millisecond {
		t.Fatalf("after wrap: count=%d min=%v, want 1/2ms", s.Count, s.Min)
	}
}

// TestStaleInstantKeepsNewerObservations: an instant a whole ring
// behind the slice its slot maps to is dropped — by the histogram and
// by the SLO tracker's counters alike — rather than resetting the slice
// and wiping the newer observation it holds.
func TestStaleInstantKeepsNewerObservations(t *testing.T) {
	w, clk := newTestWindow(10*time.Second, 10) // 1s slices
	end := clk.now()
	w.Observe(end, time.Millisecond)
	w.Observe(end.Add(-20*time.Second), 2*time.Millisecond) // same slice index, older slot
	if s := w.Snapshot(); s.Count != 1 || s.Max != time.Millisecond {
		t.Fatalf("after a stale instant: count=%d max=%v, want the first observation (1/1ms)", s.Count, s.Max)
	}

	tr, _ := newTestSLO(time.Millisecond, 0.99, 10*time.Second, 10)
	end = tr.now()
	tr.Observe(end, 5*time.Millisecond, false) // bad: over target
	tr.Observe(end.Add(-20*time.Second), 0, false)
	if st := tr.Status(); st.Total != 1 || st.Bad != 1 {
		t.Fatalf("after a stale instant: total=%d bad=%d, want 1/1", st.Total, st.Bad)
	}
}

func TestWindowedHistogramRate(t *testing.T) {
	w, clk := newTestWindow(10*time.Second, 10)
	clk.set(100 * time.Second)
	for i := 0; i < 30; i++ {
		w.Observe(clk.now(), time.Microsecond)
	}
	if got := w.Snapshot().Rate(); got != 3 {
		t.Fatalf("Rate = %v, want 3/s", got)
	}
}

func TestWindowedHistogramNil(t *testing.T) {
	var w *WindowedHistogram
	w.Observe(time.Now(), time.Second) // must not panic
	if w.Window() != 0 {
		t.Fatal("nil Window() != 0")
	}
	if s := w.Snapshot(); s.Count != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestNewWindowClamps(t *testing.T) {
	w := NewWindow(0, 0)
	if w.Window() < time.Second {
		t.Fatalf("clamped window = %v, want >= 1s", w.Window())
	}
	if len(w.slices) != 2 {
		t.Fatalf("clamped slices = %d, want 2", len(w.slices))
	}
	if w2 := NewWindow(time.Hour, 10000); len(w2.slices) != 128 {
		t.Fatalf("upper clamp slices = %d, want 128", len(w2.slices))
	}
}

func newTestSLO(target time.Duration, objective float64, window time.Duration, slices int) (*SLOTracker, *fakeClock) {
	clk := &fakeClock{}
	clk.set(10 * window)
	tr := NewSLO("test", target, objective, window, slices)
	tr.now = clk.now
	return tr, clk
}

func TestSLOTrackerBurnRate(t *testing.T) {
	// Objective 0.99 → 1% error budget.
	tr, clk := newTestSLO(10*time.Millisecond, 0.99, 60*time.Second, 12)

	// Empty window: healthy, zero burn.
	st := tr.Status()
	if !st.Healthy || st.BurnRate != 0 || st.Total != 0 {
		t.Fatalf("empty status = %+v", st)
	}

	// 99 fast + 1 slow = exactly on budget (burn 1.0, still healthy).
	for i := 0; i < 99; i++ {
		tr.Observe(clk.now(), time.Millisecond, false)
	}
	tr.Observe(clk.now(), time.Second, false)
	st = tr.Status()
	if st.Total != 100 || st.Bad != 1 {
		t.Fatalf("counts = %d/%d, want 1/100", st.Bad, st.Total)
	}
	if st.BurnRate < 0.999 || st.BurnRate > 1.001 || !st.Healthy {
		t.Fatalf("on-budget burn = %v healthy=%v, want 1.0/true", st.BurnRate, st.Healthy)
	}

	// Errors count as bad even when fast; budget now blown.
	tr.Observe(clk.now(), time.Millisecond, true)
	st = tr.Status()
	if st.Bad != 2 || st.Healthy {
		t.Fatalf("after error: bad=%d healthy=%v, want 2/false", st.Bad, st.Healthy)
	}
}

func TestSLOTrackerWindowAges(t *testing.T) {
	tr, clk := newTestSLO(10*time.Millisecond, 0.999, 10*time.Second, 10)
	clk.set(200 * time.Second)
	tr.Observe(clk.now(), time.Second, false) // bad
	if st := tr.Status(); st.Healthy {
		t.Fatalf("burning status reported healthy: %+v", st)
	}
	clk.set(220 * time.Second) // two windows later
	st := tr.Status()
	if st.Total != 0 || !st.Healthy {
		t.Fatalf("aged status = %+v, want empty/healthy", st)
	}
}

func TestSLOTrackerSetters(t *testing.T) {
	tr, clk := newTestSLO(10*time.Millisecond, 0.99, 10*time.Second, 10)
	tr.SetTarget(100 * time.Millisecond)
	tr.Observe(clk.now(), 50*time.Millisecond, false) // fast under the new target
	if st := tr.Status(); st.Bad != 0 {
		t.Fatalf("after SetTarget: bad=%d, want 0", st.Bad)
	}
	tr.SetObjective(0.5)
	tr.Observe(clk.now(), time.Second, false) // 1 bad of 2: fraction 0.5 = budget 0.5 → burn 1
	st := tr.Status()
	if st.BurnRate < 0.999 || st.BurnRate > 1.001 {
		t.Fatalf("after SetObjective: burn=%v, want 1.0", st.BurnRate)
	}
	// Invalid values are ignored.
	tr.SetTarget(-1)
	tr.SetObjective(2)
	st = tr.Status()
	if st.Target != 100*time.Millisecond || st.Objective != 0.5 {
		t.Fatalf("invalid setters applied: %+v", st)
	}
}

func TestSLOTrackerNil(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(time.Now(), time.Second, true)
	tr.SetTarget(time.Second)
	tr.SetObjective(0.5)
	if st := tr.Status(); !st.Healthy {
		t.Fatal("nil tracker unhealthy")
	}
	if tr.Name() != "" {
		t.Fatal("nil Name() != empty")
	}
}

// TestObserveReadsNoClock: a window and an SLO tracker place an
// observation by the end instant their caller read; only Snapshot and
// Status read the clock.
func TestObserveReadsNoClock(t *testing.T) {
	w, clk := newTestWindow(10*time.Second, 10)
	tr, _ := newTestSLO(10*time.Millisecond, 0.99, 10*time.Second, 10)
	noClock := func() time.Time {
		t.Fatal("Observe read the clock")
		return time.Time{}
	}
	w.now, tr.now = noClock, noClock
	end := clk.now()
	w.Observe(end, time.Millisecond)
	w.Observe(end.Add(-3*time.Second), time.Millisecond)  // inside the window
	w.Observe(end.Add(-14*time.Second), time.Millisecond) // before it
	tr.Observe(end, time.Second, false)
	w.now, tr.now = clk.now, clk.now
	if s := w.Snapshot(); s.Count != 2 {
		t.Fatalf("window count = %d, want 2: the observation that ended before the window is out", s.Count)
	}
	if st := tr.Status(); st.Total != 1 || st.Bad != 1 {
		t.Fatalf("SLO bad/total = %d/%d, want 1/1", st.Bad, st.Total)
	}
}

func TestRegistryWindowsAndSLOs(t *testing.T) {
	r := NewRegistry()
	w := r.Window("op.latency")
	if r.Window("op.latency") != w {
		t.Fatal("Window not get-or-create")
	}
	tr := r.SLO("op", 50*time.Millisecond, 0.99)
	if r.SLO("op", time.Second, 0.5) != tr {
		t.Fatal("SLO not get-or-create")
	}
	if got := tr.Status().Target; got != 50*time.Millisecond {
		t.Fatalf("second SLO() call overwrote target: %v", got)
	}

	w.Observe(time.Now(), time.Millisecond)
	tr.Observe(time.Now(), time.Millisecond, false)
	if ws, ok := r.WindowValue("op.latency"); !ok || ws.Count != 1 {
		t.Fatalf("WindowValue = %+v ok=%v", ws, ok)
	}
	if _, ok := r.WindowValue("nope"); ok {
		t.Fatal("WindowValue invented a window")
	}
	if sts := r.SLOStatuses(); len(sts) != 1 || sts[0].Name != "op" || sts[0].Total != 1 {
		t.Fatalf("SLOStatuses = %+v", sts)
	}

	// Windowed instruments have no off switch: every observe through a
	// registry's window or SLO tracker counts.
	w.Observe(time.Now(), time.Millisecond)
	tr.Observe(time.Now(), time.Millisecond, false)
	if ws, _ := r.WindowValue("op.latency"); ws.Count != 2 {
		t.Fatalf("second observe: window count = %d, want 2", ws.Count)
	}
	if sts := r.SLOStatuses(); sts[0].Total != 2 {
		t.Fatalf("second observe: SLO total = %d, want 2", sts[0].Total)
	}

	// Snapshot carries windows and SLOs; Reset clears them.
	snap := r.Snapshot()
	if len(snap.Windows) != 1 || snap.Windows[0].Name != "op.latency" || snap.Windows[0].Count != 2 {
		t.Fatalf("snapshot windows = %+v", snap.Windows)
	}
	if len(snap.SLOs) != 1 {
		t.Fatalf("snapshot slos = %+v", snap.SLOs)
	}
	r.Reset()
	if ws, _ := r.WindowValue("op.latency"); ws.Count != 0 {
		t.Fatalf("reset window count = %d", ws.Count)
	}
	if sts := r.SLOStatuses(); sts[0].Total != 0 {
		t.Fatalf("reset SLO total = %d", sts[0].Total)
	}
}

// TestWindowedHistogramConcurrent hammers observe/rotate/snapshot from
// many goroutines while a fake clock advances through slice boundaries.
// Run with -race; correctness bound: a snapshot never reports more
// observations than were made, and never reports a value outside the
// observed range.
func TestWindowedHistogramConcurrent(t *testing.T) {
	w, clk := newTestWindow(2*time.Second, 4) // 500ms slices
	clk.set(100 * time.Second)

	const (
		writers  = 8
		perWrite = 2000
	)
	var total atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Clock advancer: step through slice boundaries to force rotations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := 100 * time.Second
		for {
			select {
			case <-stop:
				return
			default:
			}
			d += 100 * time.Millisecond
			clk.set(d)
		}
	}()

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWrite; i++ {
				w.Observe(clk.now(), time.Duration(1+(g*perWrite+i)%1000)*time.Microsecond)
				total.Add(1)
			}
		}(g)
	}

	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := w.Snapshot()
				if s.Count > total.Load()+uint64(writers) {
					t.Errorf("snapshot count %d exceeds observations made", s.Count)
					return
				}
				if s.Count > 0 {
					if p := s.Quantile(0.99); p < s.Min || p > s.Max {
						t.Errorf("p99 %v outside [%v, %v]", p, s.Min, s.Max)
						return
					}
				}
			}
		}()
	}

	// Let writers and readers finish, then stop the clock.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Writers/readers are bounded; the advancer needs the stop signal.
		for total.Load() < writers*perWrite {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done
}
