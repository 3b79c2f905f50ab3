package idl

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"idl/internal/federation"
	"idl/internal/stocks"
)

// Facade tests of the shape table (DESIGN.md §20): a read whose shape
// the DB has seen is lexed and bound, not parsed, and must still be its
// own statement everywhere it shows.

// shapeHit reports whether src is a hit of db's shape table now. A miss
// stores src's shape.
func shapeHit(t *testing.T, db *DB, src string) bool {
	t.Helper()
	misses := db.shapes.Misses()
	if _, err := db.shapes.Parse(src); err != nil {
		t.Fatal(err)
	}
	return db.shapes.Misses() == misses
}

// TestShapeHitOwnAnswerAndText: two statements of one shape with
// different literals each get their own answer, and their own text in
// the flight recorder and the journal.
func TestShapeHitOwnAnswerAndText(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	path := filepath.Join(t.TempDir(), "w.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	stmts := []struct {
		src, text, answer string
		hit               bool // a shape the table held before the statement
	}{
		{"?.euter.r(.stkCode=hp, .date=3/1/85, .clsPrice=P)", "?.euter.r(.stkCode=hp, .date=3/1/85, .clsPrice=P)", "P\n50", false},
		{".euter.r(.stkCode=hp,.date=3/3/85,  .clsPrice=P)", "?.euter.r(.stkCode=hp, .date=3/3/85, .clsPrice=P)", "P\n62", true},
		{`?.euter.r(.stkCode="hp", .date=3/2/85, .clsPrice=P)`, "?.euter.r(.stkCode=hp, .date=3/2/85, .clsPrice=P)", "P\n55", false},
		{`?.euter.r(.stkCode="sun", .date=3/2/85, .clsPrice=P)`, "?.euter.r(.stkCode=sun, .date=3/2/85, .clsPrice=P)", "P\n210", true},
		{`?.euter.r(.stkCode="a b", .date=3/2/85, .clsPrice=P)`, `?.euter.r(.stkCode="a b", .date=3/2/85, .clsPrice=P)`, "P", true},
	}
	for _, s := range stmts {
		// shapeHit reads through the table, so every statement below
		// runs as a hit: the first of each shape as its own
		// representative, the others against another statement's.
		if hit := shapeHit(t, db, s.src); hit != s.hit {
			t.Fatalf("%q: shape hit = %v before it ran", s.src, hit)
		}
		res, err := db.Query(s.src)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != s.answer {
			t.Errorf("%q: answer %q, want %q", s.src, res.String(), s.answer)
		}
	}
	var texts []string
	for _, e := range db.Events() {
		if e.Kind == EventQuery {
			texts = append(texts, e.Text)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != len(stmts) || len(recs) != len(stmts) {
		t.Fatalf("%d events and %d journal records for %d statements", len(texts), len(recs), len(stmts))
	}
	for i, s := range stmts {
		if texts[i] != s.text || recs[i].Text != s.text {
			t.Errorf("statement %d: event text %q, journal text %q, want %q", i, texts[i], recs[i].Text, s.text)
		}
		if recs[i].Answer != s.answer {
			t.Errorf("statement %d: journal answer %q, want %q", i, recs[i].Answer, s.answer)
		}
	}
}

// TestShapeHitsConcurrent: readers share shapes and their
// representatives (run with -race); each gets its own answer.
func TestShapeHitsConcurrent(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	prices := map[string][]int{"hp": {50, 55, 62}, "ibm": {140, 155, 160}, "sun": {201, 210, 150}}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				stk, day := []string{"hp", "ibm", "sun"}[(g+i)%3], 1+i%3
				for _, form := range []string{
					"?.euter.r(.stkCode=%s, .date=3/%d/85, .clsPrice=P)",
					"?.chwab.r(.date=3/%[2]d/85, .%[1]s=P)",
					"?.ource.%s(.date=3/%d/85, .clsPrice=P)",
				} {
					src := fmt.Sprintf(form, stk, day)
					res, err := db.Query(src)
					if want := fmt.Sprintf("P\n%d", prices[stk][day-1]); err != nil || res.String() != want {
						t.Errorf("%s: %v, %v; want %q", src, res, err, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShapeProgramRegisteredLater: a call spelling queried before its
// program exists is a read, and its shape is stored; once DefinePrograms
// registers the program, a statement of that shape is rejected as an
// update request, as a parsed one is.
func TestShapeProgramRegisteredLater(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if _, err := db.Query("?.dbU.insStk(.stk=zz, .date=1/1/85, .price=3)"); err != nil {
		t.Fatalf("read before registration: %v", err)
	}
	if err := db.DefinePrograms(stocks.ProgramInsStk...); err != nil {
		t.Fatal(err)
	}
	const call = "?.dbU.insStk(.stk=zz, .date=1/2/85, .price=4)"
	if !shapeHit(t, db, call) {
		t.Fatal("the call's shape is not in the table")
	}
	if _, err := db.Query(call); err == nil || err.Error() != `idl: "`+call+`" is an update request; use Exec` {
		t.Errorf("Query of a registered call = %v", err)
	}
}

// TestShapeHitDegradedSkipsOwnConjunct: a best-effort shape hit over an
// unreachable member reports the skipped conjunct with its own literals,
// not its representative's.
func TestShapeHitDegradedSkipsOwnConjunct(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)
	opts := DefaultOptions()
	opts.BestEffort = true
	db := OpenWithOptions(opts)
	mustMount(t, db, "euter", NewMemorySource("euter", members["euter"]))
	mustMount(t, db, "chwab", federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{ErrorRate: 1}))
	for i, date := range []string{"3/1/85", "3/2/85"} {
		src := "?.chwab.r(.date=" + date + ", .hp=P), .euter.r(.stkCode=hp, .clsPrice=P)"
		if i > 0 && !shapeHit(t, db, src) {
			t.Fatal("no shape hit")
		}
		res, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if want := ".chwab.r(.date=" + date + ", .hp=P)"; res.Degraded == nil || len(res.Degraded.Skipped) != 1 || res.Degraded.Skipped[0] != want {
			t.Errorf("skipped = %+v, want [%s]", res.Degraded, want)
		}
	}
}

// TestShapeHitAllocs: a shape hit of the paper's point lookup stays
// under its allocation gate (58 when every statement was parsed).
func TestShapeHitAllocs(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	const src = "?.euter.r(.stkCode=hp, .date=3/3/85, .clsPrice=P)"
	for range 2 {
		if res, err := db.Query(src); err != nil || res.String() != "P\n62" {
			t.Fatalf("%v, %v", res, err)
		}
	}
	if !shapeHit(t, db, src) {
		t.Fatal("no shape hit")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = db.Query(src) }); n > 30 {
		t.Errorf("shape hit: %v allocations, gate 30", n)
	}
}
