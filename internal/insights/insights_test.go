package insights

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"idl/internal/obs"
	"idl/internal/qlog"
)

// textf lifts a literal into the lazy Text thunk Observe expects.
func textf(s string) func() string { return func() string { return s } }

func obsn(fp uint64, d time.Duration) Observation {
	return Observation{Fingerprint: fp, Kind: "query", Text: textf(fmt.Sprintf("?q%d", fp)), Duration: d, End: time.Now()}
}

func TestObserveAccumulates(t *testing.T) {
	s := New(Config{})
	s.Observe(Observation{Fingerprint: 7, Kind: "query", Text: textf("?.a.r(.x=X)"), Duration: 2 * time.Millisecond, End: time.Now(),
		PlanCache: "cold", Resources: Resources{RowsScanned: 10, TuplesEmitted: 3}})
	s.Observe(Observation{Fingerprint: 7, Kind: "query", Text: textf("?.a.r(.x=X)"), Duration: 4 * time.Millisecond, End: time.Now(),
		PlanCache: "hit", Err: true, Resources: Resources{RowsScanned: 5, FedFetches: 2, WALBytes: 11}})
	s.Observe(Observation{Fingerprint: 7, Kind: "query", Text: textf("?.a.r(.x=X)"), Duration: 6 * time.Millisecond, End: time.Now(),
		PlanCache: "hit", Degraded: true, Resources: Resources{FixpointRounds: 4, IndexBuilds: 1, IndexProbes: 9}})

	d, exs, ok := s.Get(7)
	if !ok {
		t.Fatal("digest not found")
	}
	if d.Fingerprint != "0000000000000007" || d.Kind != "query" || d.Text != "?.a.r(.x=X)" {
		t.Fatalf("identity: %+v", d)
	}
	if d.Calls != 3 || d.Errors != 1 || d.Degraded != 1 {
		t.Fatalf("counts: calls=%d errors=%d degraded=%d", d.Calls, d.Errors, d.Degraded)
	}
	if d.PlanHit != 2 || d.PlanCold != 1 || d.PlanStale != 0 || d.PlanMiss != 0 {
		t.Fatalf("plan tallies: %+v", d)
	}
	wantRes := Resources{RowsScanned: 15, TuplesEmitted: 3, FixpointRounds: 4,
		IndexBuilds: 1, IndexProbes: 9, FedFetches: 2, WALBytes: 11}
	if d.Resources != wantRes {
		t.Fatalf("resources: got %+v want %+v", d.Resources, wantRes)
	}
	if want := int64(12 * time.Millisecond); d.TotalNS != want {
		t.Fatalf("total: got %d want %d", d.TotalNS, want)
	}
	if want := int64(4 * time.Millisecond); d.MeanNS != want {
		t.Fatalf("mean: got %d want %d", d.MeanNS, want)
	}
	if d.WindowCount != 3 {
		t.Fatalf("window count: %d", d.WindowCount)
	}
	if d.P50NS <= 0 || d.P99NS < d.P50NS {
		t.Fatalf("quantiles: p50=%d p99=%d", d.P50NS, d.P99NS)
	}
	if len(exs) != 0 || d.Captures != 0 {
		t.Fatalf("capture disabled but got %d exemplars, %d captures", len(exs), d.Captures)
	}
}

func TestTopOrderings(t *testing.T) {
	s := New(Config{})
	// fp 1: many calls, few rows. fp 2: few calls, many rows + most time.
	for i := 0; i < 5; i++ {
		s.Observe(Observation{Fingerprint: 1, Kind: "query", Text: textf("?a"), Duration: time.Millisecond, End: time.Now(),
			Resources: Resources{RowsScanned: 1}})
	}
	s.Observe(Observation{Fingerprint: 2, Kind: "query", Text: textf("?b"), Duration: 100 * time.Millisecond, End: time.Now(),
		Resources: Resources{RowsScanned: 1000}})

	check := func(by string, want uint64) {
		t.Helper()
		top, err := s.Top(1, by)
		if err != nil {
			t.Fatalf("Top(%s): %v", by, err)
		}
		if len(top) != 1 || top[0].FP() != want {
			t.Fatalf("Top(%s): got %v want fp %d", by, top, want)
		}
	}
	check("calls", 1)
	check("rows", 2)
	check("time", 2)
	check("p99", 2)

	if all, _ := s.Top(0, "calls"); len(all) != 2 {
		t.Fatalf("Top(0) should return all, got %d", len(all))
	}
	if _, err := s.Top(1, "latency"); err == nil {
		t.Fatal("unknown ordering should error")
	}
	// Equal keys break ties by ascending fingerprint, deterministically.
	s2 := New(Config{})
	s2.Observe(obsn(9, time.Millisecond))
	s2.Observe(obsn(3, time.Millisecond))
	top, _ := s2.Top(2, "calls")
	if top[0].FP() != 3 || top[1].FP() != 9 {
		t.Fatalf("tiebreak: got %d,%d", top[0].FP(), top[1].FP())
	}
}

func TestMaxDigestsBound(t *testing.T) {
	s := New(Config{MaxDigests: 2})
	s.Observe(obsn(1, time.Millisecond))
	s.Observe(obsn(2, time.Millisecond))
	s.Observe(obsn(3, time.Millisecond)) // over the bound: dropped
	s.Observe(obsn(1, time.Millisecond)) // existing shape: still folds
	if s.Len() != 2 {
		t.Fatalf("len: %d", s.Len())
	}
	if s.Dropped() != 1 {
		t.Fatalf("dropped: %d", s.Dropped())
	}
	d, _, _ := s.Get(1)
	if d.Calls != 2 {
		t.Fatalf("existing shape should keep accumulating: calls=%d", d.Calls)
	}
}

func TestAbsoluteCaptureAndExemplarRing(t *testing.T) {
	s := New(Config{SlowThreshold: 10 * time.Millisecond, MaxExemplars: 2})
	var captured []string
	s.SetCaptureSource(func(tid string) (*obs.Span, []*qlog.Event) {
		captured = append(captured, tid)
		return &obs.Span{Name: "query"}, []*qlog.Event{{Seq: 1}}
	})
	s.Observe(Observation{Fingerprint: 5, Kind: "query", Text: textf("?q"), Duration: time.Millisecond, End: time.Now(), TraceID: "t-fast"})
	for i := 0; i < 3; i++ {
		s.Observe(Observation{Fingerprint: 5, Kind: "query", Text: textf("?q"),
			Duration: 20 * time.Millisecond, End: time.Now(), TraceID: fmt.Sprintf("t-slow-%d", i)})
	}
	if want := []string{"t-slow-0", "t-slow-1", "t-slow-2"}; fmt.Sprint(captured) != fmt.Sprint(want) {
		t.Fatalf("capture calls: %v", captured)
	}
	d, exs, _ := s.Get(5)
	if d.Captures != 3 {
		t.Fatalf("captures: %d", d.Captures)
	}
	// Ring bound 2: oldest evicted, order preserved.
	if len(exs) != 2 || exs[0].TraceID != "t-slow-1" || exs[1].TraceID != "t-slow-2" {
		t.Fatalf("exemplar ring: %+v", exs)
	}
	if exs[0].Trace == nil || len(exs[0].Events) != 1 {
		t.Fatalf("exemplar context missing: %+v", exs[0])
	}
	if exs[1].DurationNS != int64(20*time.Millisecond) {
		t.Fatalf("exemplar duration: %d", exs[1].DurationNS)
	}
}

func TestRelativeCaptureRespectsMinSamples(t *testing.T) {
	s := New(Config{SlowFactor: 10, MinSamples: 32})
	fast := func(n int) {
		for i := 0; i < n; i++ {
			s.Observe(Observation{Fingerprint: 8, Duration: time.Millisecond, End: time.Now(), TraceID: "t-fast"})
		}
	}
	slow := func() {
		s.Observe(Observation{Fingerprint: 8, Duration: 100 * time.Millisecond, End: time.Now(), TraceID: "t-slow"})
	}
	fast(10)
	slow() // 11 samples < MinSamples: the self-relative rule must not fire yet
	if d, _, _ := s.Get(8); d.Captures != 0 {
		t.Fatalf("captured below MinSamples: %d", d.Captures)
	}
	fast(25) // now well past MinSamples with p50 ≈ 1ms
	slow()   // 100ms ≥ 10 × p50: captures
	d, exs, _ := s.Get(8)
	if d.Captures != 1 {
		t.Fatalf("captures: %d", d.Captures)
	}
	if len(exs) != 1 || exs[0].TraceID != "t-slow" {
		t.Fatalf("exemplar: %+v", exs)
	}
}

func TestReset(t *testing.T) {
	s := New(Config{MaxDigests: 1, SlowThreshold: 1})
	s.Observe(obsn(1, time.Millisecond))
	s.Observe(obsn(2, time.Millisecond))
	if s.Len() != 1 || s.Dropped() != 1 {
		t.Fatalf("precondition: len=%d dropped=%d", s.Len(), s.Dropped())
	}
	s.Reset()
	if s.Len() != 0 || s.Dropped() != 0 {
		t.Fatalf("after reset: len=%d dropped=%d", s.Len(), s.Dropped())
	}
	if _, _, ok := s.Get(1); ok {
		t.Fatal("digest survived reset")
	}
	// The store keeps working after a reset.
	s.Observe(obsn(3, time.Millisecond))
	if s.Len() != 1 {
		t.Fatalf("post-reset observe: len=%d", s.Len())
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	for _, fp := range []uint64{0, 7, 0xdeadbeefcafef00d, ^uint64(0)} {
		hex := FingerprintHex(fp)
		if len(hex) != 16 {
			t.Fatalf("hex width: %q", hex)
		}
		got, err := ParseFingerprint(hex)
		if err != nil || got != fp {
			t.Fatalf("round trip %q: got %d, %v", hex, got, err)
		}
	}
	for _, bad := range []string{"", "zz", "12345678901234567"} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Fatalf("ParseFingerprint(%q) should fail", bad)
		}
	}
}

// TestConcurrentStress hammers observe / top-k / get / reset from many
// goroutines; run under -race this pins the lock discipline.
func TestConcurrentStress(t *testing.T) {
	s := New(Config{MaxDigests: 64, SlowThreshold: time.Microsecond, MaxExemplars: 2})
	s.SetCaptureSource(func(tid string) (*obs.Span, []*qlog.Event) {
		return &obs.Span{Name: "q"}, nil
	})
	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fp := uint64(i % 16)
				s.Observe(Observation{Fingerprint: fp, Kind: "query", Text: textf("?q"),
					Duration: time.Duration(i%5) * time.Millisecond, End: time.Now(), TraceID: "t",
					PlanCache: "hit", Resources: Resources{RowsScanned: uint64(i)}})
				switch i % 97 {
				case 0:
					if _, err := s.Top(4, TopKeys[i%len(TopKeys)]); err != nil {
						t.Errorf("Top: %v", err)
					}
				case 1:
					s.Get(fp)
				case 2:
					if g == 0 {
						s.Reset()
					}
				case 3:
					s.Digests()
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-stress sanity: the store is still coherent.
	for _, d := range s.Digests() {
		if d.Calls == 0 {
			t.Fatalf("zero-call digest: %+v", d)
		}
	}
}

// TestSlowVerdictsMatchPerObservationMedian: the self-relative rule reads
// a p50 taken once per time slice. On a seeded stream — a steady
// statement with rare large outliers, which degrades threefold half-way
// — its verdicts equal those of merging the whole window for every
// observation, the rule's former computation.
func TestSlowVerdictsMatchPerObservationMedian(t *testing.T) {
	const (
		factor = 4
		min    = 32
	)
	s := New(Config{SlowFactor: factor, MinSamples: min})
	ref := obs.NewWindow(obs.DefaultWindow, obs.DefaultWindowSlices)
	r := rand.New(rand.NewSource(7))
	end := time.Unix(1_700_000_000, 0)
	slow := 0
	const n = 20000
	for i := 0; i < n; i++ {
		end = end.Add(time.Duration(1+r.Intn(40)) * time.Millisecond)
		base := 100 * time.Microsecond
		if i >= n/2 {
			base *= 3
		}
		d := base * time.Duration(80+r.Intn(46)) / 100
		if r.Intn(25) == 0 {
			d = base * time.Duration(8+r.Intn(13))
		}
		ref.Observe(end, d)
		ws := ref.SnapshotAt(end)
		p50 := ws.Quantile(0.50)
		want := ws.Count >= min && p50 > 0 && float64(d) >= factor*float64(p50)

		o := Observation{Fingerprint: 1, Kind: "query", Text: textf("?q"), Duration: d, End: end}
		var before uint64
		if e := s.entries[1]; e != nil {
			before = e.captures
		}
		s.Observe(o)
		got := s.entries[1].captures > before
		if got != want {
			t.Fatalf("observation %d (%v, window p50 %v): slow=%v, per-observation median says %v", i, d, p50, got, want)
		}
		if got {
			slow++
		}
	}
	if slow < n/50 || slow > n/10 {
		t.Fatalf("%d of %d observations slow: the stream does not exercise the rule", slow, n)
	}
	// The median followed the degradation rather than keeping the first
	// one it took.
	if m := s.entries[1].p50.Load(); m == nil || m.p50 < 240*time.Microsecond || m.p50 > 375*time.Microsecond {
		t.Fatalf("cached median %+v after the statement degraded to ~300µs", m)
	}
}
