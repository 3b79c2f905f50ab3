package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// probeEngine holds one relation, .m.r, of 60 tuples: ten stocks by six
// days, inserted day-major so one stock's tuples are spread through the
// set.
func probeEngine(t testing.TB, opts Options) (*Engine, *object.Set) {
	t.Helper()
	e := NewEngineWithOptions(opts)
	r := object.NewSet()
	for d := 1; d <= 6; d++ {
		for s := range 10 {
			r.Add(object.TupleOf("date", object.NewDate(85, 3, d), "stkCode", fmt.Sprintf("s%d", s), "clsPrice", 10*s+d))
		}
	}
	m := object.NewTuple()
	m.Put("r", r)
	e.Base().Put("m", m)
	e.Invalidate()
	return e, r
}

// TestIndexProbe: a probe pins every ground equality of its set
// expression at once, returns its candidates in set order, handles a
// repeated attribute, and allocates nothing once the index is built.
func TestIndexProbe(t *testing.T) {
	e, r := probeEngine(t, DefaultOptions())
	scan, _ := probeEngine(t, Options{})

	// Two keys: the one tuple of stock s3 on 3/2/85.
	e.ResetStats()
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	if ans := q(t, e, "?.m.r(.stkCode=s3, .date=3/2/85, .clsPrice=P)"); ans.String() != "P\n32" {
		t.Fatalf("two-key probe answered %q", ans)
	}
	if st := e.Stats(); st.IndexProbes != 1 || st.IndexCandidates != 1 || st.ElementsScanned != 0 {
		t.Fatalf("two-key probe: %+v, want 1 probe returning 1 candidate", st)
	}
	if got := reg.Counter("engine.eval.index_candidates").Value(); got != 1 {
		t.Fatalf("engine.eval.index_candidates = %d, want 1", got)
	}

	// Candidates are a subsequence of insertion order: the raw rows come
	// out in scan order, on one key and on two.
	for _, src := range []string{
		"?.m.r(.stkCode=s3, .date=D, .clsPrice=P)",
		"?.m.r(.date=3/4/85, .stkCode=S, .clsPrice=P)",
		"?.m.r(.stkCode=S, .date=D, .clsPrice=P), .m.r(.date=D, .stkCode=s7, .clsPrice<P)",
	} {
		a, b := q(t, e, src), q(t, scan, src)
		if fmt.Sprint(a.Rows()) != fmt.Sprint(b.Rows()) {
			t.Errorf("%s: probe rows\n%v\nscan rows\n%v", src, a.Rows(), b.Rows())
		}
	}

	// A repeated attribute: the probe pins its first value, evaluation
	// checks the second.
	for src, want := range map[string]string{
		"?.m.r(.stkCode=s3, .date=3/2/85, .date=3/3/85, .clsPrice=P)": "P",
		"?.m.r(.stkCode=s3, .date=3/2/85, .date=3/2/85, .clsPrice=P)": "P\n32",
		"?.m.r(.date=D, .stkCode=s1, .date=3/5/85)":                   "D\n3/5/85",
	} {
		if got := q(t, e, src).String(); got != want {
			t.Errorf("%s: %q, want %q", src, got, want)
		}
		if got := q(t, scan, src).String(); got != want {
			t.Errorf("%s (scan): %q, want %q", src, got, want)
		}
	}

	// The probe path end to end — ground equalities, key, bucket — makes
	// no allocation over a built index.
	query := mustParse(t, "?.m.r(.stkCode=s3, .date=3/2/85, .clsPrice=P)")
	key, lits := planKeyFor(query, e.opts)
	an := e.compilePlan(query, e.Base(), key, 0, nil).an.bind(lits)
	se := an.body.Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.SetExpr)
	ev := newEvaluator(nil, an, e.opts, &Stats{})
	cands, ok := ev.indexCandidates(se, r)
	if !ok || len(cands) != 1 {
		t.Fatalf("indexCandidates: %d candidates, ok=%v", len(cands), ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { ev.indexCandidates(se, r) }); allocs != 0 {
		t.Errorf("a probe over a built index allocates %.1f times", allocs)
	}
}

// TestIndexBuiltOnceOnSharedSnapshot: readers of one pinned version
// that first-probe the same relation on the same attributes at once
// build its index exactly once between them (run it under -race). A
// write then copies the relation on write: a probe of the new head
// builds on the clone only, and the pinned version's index still serves
// its readers.
func TestIndexBuiltOnceOnSharedSnapshot(t *testing.T) {
	// Big enough that one build takes long enough for the readers to
	// meet at the memo.
	e := NewEngine()
	r := object.NewSet()
	for d := range 400 {
		for s := range 10 {
			r.Add(object.TupleOf("day", d, "stkCode", fmt.Sprintf("s%d", s), "clsPrice", 10*d+s))
		}
	}
	m := object.NewTuple()
	m.Put("r", r)
	e.Base().Put("m", m)
	e.Invalidate()
	q(t, e, "?.m.r(.clsPrice<0)") // publishes a head; probes nothing
	v, _, err := e.pin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer v.unpin()
	probe := mustParse(t, "?.m.r(.stkCode=s3, .day=7, .clsPrice=P)")
	readPinned := func(readers int) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				ans, _, err := e.runQuery(nil, context.Background(), probe, nil, v.readView, readQuery)
				if err != nil || ans.String() != "P\n73" {
					t.Errorf("pinned probe: %v, %v", ans, err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	e.ResetStats()
	readPinned(8)
	if st := e.Stats(); st.IndexBuilds != 1 || st.IndexProbes != 8 {
		t.Fatalf("8 first probes of one pinned set: %d builds, %d probes; want 1 build", st.IndexBuilds, st.IndexProbes)
	}

	exec(t, e, "?.m.r+(.day=400, .stkCode=s3, .clsPrice=1)")
	e.ResetStats()
	q(t, e, probe.String())
	pinned, _ := v.eff.Get("m")
	if held, _ := pinned.(*object.Tuple).Get("r"); relation(t, e, "m", "r") == r || held != r {
		t.Fatal("the write did not copy the pinned relation on write")
	}
	if st := e.Stats(); st.IndexBuilds != 1 {
		t.Fatalf("first probe of the written relation: %d builds, want 1 (on the clone)", st.IndexBuilds)
	}
	readPinned(8)
	if st := e.Stats(); st.IndexBuilds != 1 {
		t.Fatalf("pinned readers after the write: %d builds in all, want the clone's 1 only", st.IndexBuilds)
	}
}
