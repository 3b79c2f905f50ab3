package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// quickConfig is the smoke test's plan: one short window, one set-up, a
// short crash log — enough to reach every code path, not to measure.
func quickConfig(t *testing.T) Config {
	cfg := defaultConfig()
	cfg.Windows = 1
	cfg.Window = 200 * time.Millisecond
	cfg.SetupReps = 1
	cfg.LogRecords = 400
	cfg.TraceFor = 300 * time.Millisecond
	cfg.Dir = t.TempDir()
	return cfg
}

// generated renders everything the generator makes for one seed.
func generated(seed uint64) []any {
	var out []any
	for _, size := range []Size{DLarge, DSmall} {
		d := NewDataset(seed, size)
		pool, partners := d.ScanPool()
		out = append(out, d.Script(), d.PointPool(seed, min(embeddedPointPool, 3*d.Facts())), pool, partners, d.ViewReads(seed, 8))
		for c := 0; c < 2; c++ {
			sc := d.NewMixedScript(seed, c)
			var ops []Op
			for i := 0; i < 300; i++ {
				ops = append(ops, sc.Next())
			}
			out = append(out, ops, zipfDraws(newRNG(seed, "zipf"), zipfSkew, embeddedPointPool, 4096))
		}
	}
	return out
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, again, b := generated(7), generated(7), generated(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed generated different inputs")
	}
	for i := range a {
		// The scan pool's shapes are fixed; only its thresholds move, and
		// two seeds may share a quantile. Everything else must differ.
		if reflect.DeepEqual(a[i], b[i]) {
			if _, isPool := a[i].([]Stmt); !isPool {
				t.Errorf("input %d (%T) is the same under seeds 7 and 8", i, a[i])
			}
		}
	}
}

func TestPointPoolIsDistinctAndBalanced(t *testing.T) {
	if scan, _ := NewDataset(3, DLarge).ScanPool(); len(scan) != scanPoolSize {
		t.Errorf("the scan pool has %d statements, scanPoolSize says %d", len(scan), scanPoolSize)
	}
	pool := NewDataset(3, DLarge).PointPool(3, embeddedPointPool)
	seen := map[string]bool{}
	perLayout := map[string]int{}
	for _, s := range pool {
		if seen[s.Text] {
			t.Fatalf("duplicate statement %q", s.Text)
		}
		seen[s.Text] = true
		perLayout[s.Shape]++
	}
	for _, layout := range layouts {
		if n := perLayout["point."+layout]; n < embeddedPointPool/3 || n > embeddedPointPool/3+1 {
			t.Errorf("%d statements in layout %s, want a third of %d", n, layout, embeddedPointPool)
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var spec Spec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a why longer than 200 characters", w.Name)
		}
	}
	for _, group := range []struct {
		spec []SpecMetric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(group.spec) != len(group.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the program defines %d", len(group.spec), len(group.defs))
		}
		for i, d := range group.defs {
			m := group.spec[i]
			if m.Name != d.Name || m.Unit != d.Unit {
				t.Errorf("metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
			}
			if !name.MatchString(d.Name) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: bad name or direction %q", d.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := w.measure(context.Background(), quickConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.FailedShare != 0 || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d (share %v)", res.Attempted, res.Failed, res.FailedShare)
			}
			for _, d := range endToEnd {
				m, ok := res.EndToEnd[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
				}
			}
		})
	}
}

// The layers' self times are differences of spans; whatever the spans
// are, per statement they must add up to the loopback span, or a layer
// has been counted twice or not at all.
func TestSelfTimesTelescope(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		var st step
		for j := range st.d {
			st.d[j] = time.Duration(r.Intn(1e6))
		}
		var sum float64
		for _, layer := range selfLayers {
			sum += layer.f(&st)
		}
		if want := st.us(rLoopback); math.Abs(sum-want) > 1e-6 {
			t.Fatalf("self times sum to %v us, the loopback span is %v us", sum, want)
		}
	}
}

func TestLadderReportsEveryLayer(t *testing.T) {
	for _, name := range []string{"served.point", "served.mixed"} {
		w, _ := workloadByName(name)
		res, err := w.trace(context.Background(), quickConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		for _, d := range perLayer {
			m, ok := res.PerLayer[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v)", name, d.Name, m, ok)
			}
		}
		loopback, residual := res.PerLayer["ladder.loopback_us"].Value, res.PerLayer["ladder.residual_us"].Value
		if loopback <= 0 || math.Abs(residual) > 0.25*loopback {
			t.Errorf("%s: the layers' medians leave %v us of a %v us loopback median unexplained", name, residual, loopback)
		}
	}
}

func TestAgreeFlagsBreachesAndNoise(t *testing.T) {
	result := func(p50, disturbed float64) *Result {
		r := &Result{Attempted: 100, EndToEnd: map[string]Metric{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = Metric{Value: 100, Unit: d.Unit}
		}
		r.EndToEnd["p50_us"] = Metric{Value: p50, Unit: "us", Best: p50, Median: p50 * (1 + disturbed)}
		return r
	}
	file := func(p50, disturbed float64) string {
		f := File{Timed: map[string]*Result{}}
		for _, w := range workloads {
			f.Timed[w.Name] = result(p50, disturbed)
		}
		path := t.TempDir() + "/r.json"
		if err := writeJSON(path, &f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(100, 0.02)
	for _, c := range []struct {
		name   string
		b      string
		status int
	}{
		{"same", file(104, 0.02), 0},
		{"slower", file(130, 0.02), 1},
		{"noisy", file(100, 0.40), 1},
	} {
		if got := agreeFiles("../BENCHMARK.json", base, c.b, io.Discard, io.Discard); got != c.status {
			t.Errorf("%s: -agree exits %d, want %d", c.name, got, c.status)
		}
	}
}
