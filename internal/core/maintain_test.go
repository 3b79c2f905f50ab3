package core

import (
	"fmt"
	"math/rand"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// monotoneRules is a negation-free subset of the unified-view rules.
var monotoneRules = []string{
	".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
	".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
}

func TestIncrementalAfterInsert(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, monotoneRules)
	if ans := q(t, e, "?.dbI.p(.stk=S)"); ans.Len() != 3 {
		t.Fatalf("initial stocks = %d", ans.Len())
	}
	if e.LastRecompute().Delta {
		t.Error("first materialization must be full")
	}
	exec(t, e, "?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80)")
	ans := q(t, e, "?.dbO.dec(.date=3/4/85,.clsPrice=P)")
	if !ans.Contains(row("P", 80)) {
		t.Fatalf("maintained view missing new fact:\n%s", ans)
	}
	if st := e.LastRecompute(); !st.Delta || st.FactsDerived != 2 {
		t.Errorf("an insert should be maintained by delta, deriving one fact per view: %+v", st)
	}
}

func TestIncrementalRetractsOnDelete(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, monotoneRules)
	q(t, e, "?.dbI.p(.stk=S)") // materialize
	exec(t, e, "?.euter.r-(.stkCode=hp), .ource-.hp")
	if ans := q(t, e, "?.dbI.p(.stk=hp)"); ans.Bool() {
		t.Error("deleted facts must vanish from the view")
	}
	if ans := q(t, e, "?.dbO.S, S = hp"); ans.Bool() {
		t.Error("a derived relation left empty must vanish, as from scratch")
	}
	if !e.LastRecompute().Delta {
		t.Error("a deletion should be maintained by delta")
	}
	assertOverlayFresh(t, e)
}

func TestIncrementalReRunsNegatedRule(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, monotoneRules)
	// A rule reading a changed relation under negation re-runs in full
	// and diffs its rows; the refresh as a whole stays a delta refresh.
	mustRule(t, e, ".dbI.pnew+(.date=D,.stk=S,.price=P) <- .dbI.p(.date=D,.stk=S,.price=P), .dbI.p~(.date=D,.stk=S,.price>P)")
	q(t, e, "?.dbI.pnew(.stk=S)")
	exec(t, e, "?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80), .ource.dec+(.date=3/4/85,.clsPrice=90)")
	if ans := q(t, e, "?.dbI.pnew(.stk=dec, .price=P)"); ans.Len() != 1 || !ans.Contains(row("P", 90)) {
		t.Errorf("pnew keeps the higher price only:\n%s", ans)
	}
	if !e.LastRecompute().Delta {
		t.Error("negation should re-run its rule, not force a full recomputation")
	}
	assertOverlayFresh(t, e)
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	// The maintained engine's view must equal a fresh engine's view after
	// the same sequence of updates.
	inc := newStockEngine(t)
	full := newStockEngine(t)
	addRules(t, inc, monotoneRules)
	addRules(t, full, monotoneRules)
	updates := []string{
		"?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80)",
		"?.ource.dec+(.date=3/5/85,.clsPrice=81)",
		"?.euter.r+(.date=3/5/85,.stkCode=next,.clsPrice=12)",
		"?.euter.r-(.stkCode=dec)",
	}
	for _, u := range updates {
		exec(t, inc, u)
		exec(t, full, u)
		full.Invalidate()
		a := q(t, inc, "?.dbI.p(.date=D,.stk=S,.price=P)")
		b := q(t, full, "?.dbI.p(.date=D,.stk=S,.price=P)")
		a.Sort()
		b.Sort()
		if a.String() != b.String() {
			t.Fatalf("maintained view diverged after %s:\n%s\nvs\n%s", u, a, b)
		}
	}
	effInc, err := inc.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	effFull, err := full.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	dbOInc, _ := effInc.Get("dbO")
	dbOFull, _ := effFull.Get("dbO")
	if !dbOInc.Equal(dbOFull) {
		t.Error("higher-order view diverged between maintained and full")
	}
}

func TestIncrementalExternalInvalidateForcesFull(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, monotoneRules)
	q(t, e, "?.dbI.p(.stk=S)")
	// Direct base mutation + Invalidate carries no delta. The fact must
	// vanish from both sources feeding the view.
	rel := relation(t, e, "euter", "r")
	rel.RemoveWhere(func(o object.Object) bool {
		tp, ok := o.(*object.Tuple)
		if !ok {
			return false
		}
		v, _ := tp.Get("stkCode")
		return v.Equal(object.Str("hp"))
	})
	ource, _ := e.Base().Get("ource")
	ource.(*object.Tuple).Delete("hp")
	e.Invalidate()
	if ans := q(t, e, "?.dbI.p(.stk=hp)"); ans.Bool() {
		t.Error("external deletion must be reflected (full recompute)")
	}
	if e.LastRecompute().Delta {
		t.Error("external invalidation must force full recomputation")
	}
}

// assertOverlayFresh checks the maintained overlay against a refresh of
// the same universe from the empty overlay.
func assertOverlayFresh(t testing.TB, e *Engine) {
	t.Helper()
	if _, err := e.DerivedOverlay(); err != nil {
		t.Fatal(err)
	}
	fresh := freshOverlay(t, e)
	if !fresh.Equal(e.derived) {
		t.Fatalf("maintained overlay diverges from a fresh materialization:\nmaintained %s\nfresh      %s", e.derived.CanonicalString(), fresh.CanonicalString())
	}
}

// freshOverlay derives e's overlay from empty, leaving the maintained
// overlay and its state as they were.
func freshOverlay(t testing.TB, e *Engine) *object.Tuple {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	derived, views := e.derived, e.views
	defer func() { e.derived, e.views = derived, views }()
	e.views = viewState{}
	if _, err := e.refreshViews(nil, nil); err != nil {
		t.Fatal(err)
	}
	return e.derived
}

// streamRules are the paper's six stock rules (§6), a rule reading the
// unified view under negation, a recursive pair over a separate edge
// relation g.e, and a second recursive pair whose base case reads
// another relation, g.s, and whose recursive rule reads g.blk under
// negation.
var streamRules = append(append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...),
	stocks.RulePnew,
	".dbR.reach+(.a=X, .b=Y) <- .g.e(.a=X, .b=Y)",
	".dbR.reach+(.a=X, .b=Z) <- .dbR.reach(.a=X, .b=Y), .g.e(.a=Y, .b=Z)",
	".dbR.walk+(.a=X, .b=Y) <- .g.s(.a=X, .b=Y)",
	".dbR.walk+(.a=X, .b=Z) <- .dbR.walk(.a=X, .b=Y), .g.e(.a=Y, .b=Z), ~.g.blk(.x=Y)",
)

// streamViews are read after every statement of a stream.
var streamViews = []string{
	"?.dbI.p(.date=D, .stk=S, .price=P)",
	"?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)",
	"?.dbC.r(.date=D, .S=P), S != date",
	"?.dbO.S(.date=D, .clsPrice=P)",
	"?.dbI.pnew(.date=D, .stk=S, .price=P)",
	"?.dbR.reach(.a=X, .b=Y)",
	"?.dbR.walk(.a=X, .b=Y)",
}

// streamEngine is the paper fixture with the stream rules and the §7
// insStk / delStk programs.
func streamEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	e := newStockEngine(t)
	e.SetWorkers(workers)
	g := object.NewTuple()
	// The edges hold a cycle 2 ⇄ 3 that walk enters from 4 through 1:
	// blocking the entry, or dropping a source on the cycle, leaves a
	// cycle that would support itself.
	g.Put("e", object.SetOf(object.TupleOf("a", 1, "b", 2), object.TupleOf("a", 2, "b", 3), object.TupleOf("a", 3, "b", 2)))
	g.Put("s", object.SetOf(object.TupleOf("a", 4, "b", 1)))
	g.Put("blk", object.NewSet())
	e.Base().Put("g", g)
	e.Invalidate()
	addRules(t, e, streamRules)
	for _, c := range append(append([]string{}, stocks.ProgramInsStk...), stocks.ProgramDelStk...) {
		mustClause(t, e, c)
	}
	return e
}

// viewStream draws steps update statements over the three layouts from
// next (which returns a choice in [0, n)): program calls, raw inserts
// and deletes, new ource relations and chwab attributes and rows,
// attribute and relation drops, edge, source and block changes for the
// recursive rules, and a request that fails and rolls back. A (date,
// stock) is quoted at one price — the fixture's, or one derived from the
// pair — except for one statement in six, whose price comes from a small
// pool: a second price for the pair, a conflict in its day's dbC.r group.
func viewStream(next func(n int) int, steps int) []string {
	stks := []string{"hp", "ibm", "sun", "dec", "zed"}
	dates := []string{"3/1/85", "3/2/85", "3/3/85", "3/4/85"}
	pool := []int{50, 55, 62, 70, 140, 201}
	var out []string
	for i := 0; i < steps; i++ {
		si, di := next(len(stks)), next(len(dates))
		s, d := stks[si], dates[di]
		p := 300 + 10*si + di
		if si < len(fixStocks) && di < len(fixDates) {
			p = fixPrices[s][di]
		}
		if next(6) == 0 {
			p = pool[next(len(pool))]
		}
		var stmt string
		switch next(16) {
		case 0, 1, 14:
			stmt = fmt.Sprintf("?.dbU.insStk(.stk=%s, .date=%s, .price=%d)", s, d, p)
		case 2, 3:
			stmt = fmt.Sprintf("?.dbU.delStk(.stk=%s, .date=%s)", s, d)
		case 4:
			// A second euter element for the same quote, told apart by
			// a volume the rules do not read.
			stmt = fmt.Sprintf("?.euter.r+(.date=%s, .stkCode=%s, .clsPrice=%d, .vol=%d)", d, s, p, next(2))
		case 5:
			if next(2) == 0 {
				stmt = fmt.Sprintf("?.euter.r-(.stkCode=%s, .date=%s)", s, d)
			} else {
				stmt = fmt.Sprintf("?.euter.r-(.stkCode=%s, .vol=%d)", s, next(2))
			}
		case 6:
			stmt = fmt.Sprintf("?.ource.%s+(.date=%s, .clsPrice=%d)", s, d, p)
		case 7:
			stmt = fmt.Sprintf("?.ource.%s-(.date=%s)", s, d)
		case 8:
			stmt = fmt.Sprintf("?.chwab.r(.date=%s, +.%s=%d)", d, s, p)
		case 9:
			if next(2) == 0 {
				stmt = fmt.Sprintf("?.chwab.r(-.%s)", s)
			} else {
				stmt = fmt.Sprintf("?.ource-.%s", s)
			}
		case 10:
			stmt = fmt.Sprintf("?.chwab.r+(.date=%s, .%s=%d)", d, s, p)
		case 11, 13:
			a, b := 1+next(4), 1+next(4)
			switch next(6) {
			case 0:
				stmt = fmt.Sprintf("?.g.e+(.a=%d, .b=%d)", a, b)
			case 1:
				stmt = fmt.Sprintf("?.g.e-(.a=%d)", a)
			case 2:
				stmt = fmt.Sprintf("?.g.s+(.a=%d, .b=%d)", a, b)
			case 3:
				stmt = fmt.Sprintf("?.g.s-(.a=%d)", a)
			case 4:
				stmt = fmt.Sprintf("?.g.blk+(.x=%d)", a)
			default:
				stmt = fmt.Sprintf("?.g.blk-(.x=%d)", a)
			}
		case 12:
			stmt = fmt.Sprintf("?.euter.r+(.date=%s, .stkCode=%s, .clsPrice=%d), .nodb.r+(.a=1)", d, s, p)
		default:
			stmt = fmt.Sprintf("?.euter.r+(.date=%s, .stkCode=%s, .clsPrice=%d)", d, s, p)
		}
		out = append(out, stmt)
	}
	return out
}

// checkStream runs stmts on a maintained engine and on a twin that
// recomputes every view from scratch, and after each statement demands
// that a captured change be maintained by delta, the maintained overlay
// equal a fresh materialization and every view answer canonically the
// same. It returns how many refreshes took the delta path.
func checkStream(t testing.TB, workers int, stmts []string) (deltas int) {
	e, twin := streamEngine(t, workers), streamEngine(t, workers)
	q(t, e, "?.dbI.p")
	for i, src := range stmts {
		query, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		_, err = e.Execute(query)
		_, twinErr := twin.Execute(query)
		if (err == nil) != (twinErr == nil) {
			t.Fatalf("step %d %s: maintained err %v, twin err %v", i, src, err, twinErr)
		}
		twin.Invalidate()
		captured := !e.views.pending.full
		assertOverlayFresh(t, e)
		if e.LastRecompute().Delta {
			deltas++
		} else if captured {
			t.Fatalf("step %d %s: a captured change was refreshed from empty", i, src)
		}
		for _, view := range streamViews {
			a, b := q(t, e, view), q(t, twin, view)
			a.Sort()
			b.Sort()
			if a.String() != b.String() {
				t.Fatalf("step %d %s: %s diverges\nmaintained:\n%s\nfrom scratch:\n%s", i, src, view, a, b)
			}
		}
		if d := ruleOracle(t, e); d != "" {
			t.Fatalf("step %d %s: step programs diverge from the reference scheduler: %s", i, src, d)
		}
	}
	return deltas
}

// TestViewMaintenanceMatchesFromScratch drives seeded update streams
// through delta maintenance at 0, 2 and 4 workers. A fixed prefix pins
// the paths: an insStk and a delStk take the delta path, a quote derived
// twice by one rule survives losing one derivation, a second price for
// one (date, stock) — a conflict in that day's dbC.r group — and its
// removal are maintained by delta too, and so are the two changes that
// reset walk's recursive stratum without a Δ⁻ on its delta reads:
// blocking the cycle's entry, and dropping the one source on the cycle.
func TestViewMaintenanceMatchesFromScratch(t *testing.T) {
	e := streamEngine(t, 0)
	q(t, e, "?.dbI.p")
	for _, step := range []struct {
		src   string
		delta bool
	}{
		{"?.dbU.insStk(.stk=dec, .date=3/2/85, .price=70)", true},
		{"?.dbU.delStk(.stk=hp, .date=3/1/85)", true},
		{"?.euter.r+(.date=3/3/85, .stkCode=qqq, .clsPrice=5)", true},
		{"?.euter.r+(.date=3/3/85, .stkCode=qqq, .clsPrice=5, .vol=9)", true},
		{"?.euter.r-(.stkCode=qqq, .vol=9)", true},                      // the first element still derives the quote
		{"?.euter.r+(.date=3/2/85, .stkCode=ibm, .clsPrice=156)", true}, // ibm is 155 that day
		{"?.euter.r-(.date=3/2/85, .stkCode=ibm, .clsPrice=156)", true},
		{"?.dbU.insStk(.stk=zed, .date=3/3/85, .price=9)", true},
		{"?.g.blk+(.x=1)", true},
		{"?.g.blk-(.x=1)", true},
		{"?.g.s-(.b=1), .g.s+(.a=4, .b=2)", true},
		{"?.g.s-(.a=4)", true},
	} {
		exec(t, e, step.src)
		assertOverlayFresh(t, e)
		if got := e.LastRecompute().Delta; got != step.delta {
			t.Fatalf("%s: delta path = %v, want %v", step.src, got, step.delta)
		}
	}
	for _, workers := range []int{0, 2, 4} {
		deltas, stmts := 0, 0
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			stream := viewStream(r.Intn, 40)
			deltas += checkStream(t, workers, stream)
			stmts += len(stream)
		}
		// Failed requests and uncaptured changes refresh from empty;
		// checkStream has already required the delta path of the rest.
		if deltas < stmts/2 {
			t.Errorf("workers %d: only %d of %d refreshes took the delta path", workers, deltas, stmts)
		}
		t.Logf("workers %d: %d of %d refreshes took the delta path", workers, deltas, stmts)
	}
}

// TestStockProgramsTakeDeltaPath: on the paper's six stock rules, every
// insStk and delStk is maintained by delta, never refreshed from empty.
func TestStockProgramsTakeDeltaPath(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...))
	for _, c := range append(append([]string{}, stocks.ProgramInsStk...), stocks.ProgramDelStk...) {
		mustClause(t, e, c)
	}
	q(t, e, "?.dbC.r")
	for i := 0; i < 12; i++ {
		// Fresh quotes (a new stock, an existing one on a new day) go in
		// and come out again; an existing quote comes out and goes back.
		stk, date, price := []string{"dec", "hp", "sun"}[i/2%3], []string{"3/2/85", "3/4/85", "3/3/85"}[i/2%3], 300+i
		if stk == "sun" {
			price = 150
		}
		src := fmt.Sprintf("?.dbU.insStk(.stk=%s, .date=%s, .price=%d)", stk, date, price)
		if (i%2 == 1) != (stk == "sun") {
			src = fmt.Sprintf("?.dbU.delStk(.stk=%s, .date=%s)", stk, date)
		}
		exec(t, e, src)
		assertOverlayFresh(t, e)
		if !e.LastRecompute().Delta {
			t.Fatalf("%s fell back to a full recomputation", src)
		}
	}
}

// TestDeltaWorkTracksDeltaNotData is the count gate on delta
// maintenance: over alternating insStk / delStk with every view read
// after each write, the rule rows evaluated and the decree candidates
// per write must not grow with the data — here 15× more days (120 →
// 1 800 facts per layout; the stock count, which sets the width of a
// chwab row, stays 8). Full recomputation grows both ~15×. Counts repeat
// exactly, so the bound cannot flake.
func TestDeltaWorkTracksDeltaNotData(t *testing.T) {
	perWrite := func(days int) (rows, cands float64) {
		e := stockViewEngine(t, 8, days, DefaultOptions())
		read := "?.dbE.r(.stkCode=stk001, .date=1/2/85, .clsPrice=P)"
		q(t, e, read)
		const writes = 10
		for i := 0; i < writes; i++ {
			src := "?.dbU.insStk(.stk=fresh, .date=1/3/85, .price=7)"
			if i%2 == 1 {
				src = "?.dbU.delStk(.stk=fresh, .date=1/3/85)"
			}
			exec(t, e, src)
			q(t, e, read)
			st := e.LastRecompute()
			if !st.Delta {
				t.Fatalf("%d days: %s fell back to a full recomputation", days, src)
			}
			rows += float64(st.RuleRows)
			cands += float64(st.DecreeCandidates)
		}
		return rows / writes, cands / writes
	}
	smallRows, smallCands := perWrite(15)
	largeRows, largeCands := perWrite(225)
	if smallRows == 0 || smallCands == 0 {
		t.Fatalf("nothing measured: rows %.1f, candidates %.1f", smallRows, smallCands)
	}
	if largeRows > 1.5*smallRows || largeCands > 1.5*smallCands {
		t.Errorf("per-write work grew with the data: rows %.1f → %.1f, candidates %.1f → %.1f", smallRows, largeRows, smallCands, largeCands)
	}
	t.Logf("per write: rule rows %.1f → %.1f, decree candidates %.1f → %.1f (120 → 1 800 facts)", smallRows, largeRows, smallCands, largeCands)
}

// FuzzViewMaintenance runs the stream generator on fuzzer-chosen
// choices: every captured change must be maintained by delta, the
// maintained overlay must equal a fresh materialization after every
// statement, and every rule body — in full and with its head bound, as
// derivable runs it — must run its step programs exactly as the
// reference scheduler runs it (sched_ref_test.go).
func FuzzViewMaintenance(f *testing.F) {
	for _, seed := range []string{"", "\x00\x01\x02\x03", "insStk-then-delete", "\x05\x05\x05\x09\x09\x0b\x0c",
		// blk+(.x=1): walk's cycle 2 ⇄ 3 loses its entry.
		"\x00\x00\x00\x01\x0b\x00\x00\x04",
		// s+(.a=2, .b=2), then s-(.a=2): the source on the cycle goes.
		"\x00\x00\x00\x01\x0b\x01\x01\x02\x00\x00\x01\x0b\x01\x00\x03",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		workers := 2 * next(3)
		checkStream(t, workers, viewStream(next, min(len(data)/4+1, 24)))
	})
}
