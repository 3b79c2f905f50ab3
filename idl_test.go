package idl

import (
	"path/filepath"
	"strings"
	"testing"

	"idl/internal/parser"
	"idl/internal/stocks"
)

// seedStocks loads the paper's running example at small scale.
func seedStocks(t testing.TB, db *DB) {
	t.Helper()
	cat := db.Catalog()
	dates := []DateValue{Date(85, 3, 1), Date(85, 3, 2), Date(85, 3, 3)}
	prices := map[string][]int{"hp": {50, 55, 62}, "ibm": {140, 155, 160}, "sun": {201, 210, 150}}
	for s, ps := range prices {
		for i, p := range ps {
			if _, err := cat.Insert("euter", "r", Tup("date", dates[i], "stkCode", s, "clsPrice", p)); err != nil {
				t.Fatal(err)
			}
			if _, err := cat.Insert("ource", s, Tup("date", dates[i], "clsPrice", p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, d := range dates {
		row := Tup("date", d)
		for s, ps := range prices {
			row.Put(s, Int(ps[i]))
		}
		if _, err := cat.Insert("chwab", "r", row); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>200)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(RowOf("S", "sun")) {
		t.Errorf("answer:\n%s", res)
	}
	// Leading ? optional.
	res2, err := db.Query(".euter.r(.stkCode=S, .clsPrice>200)")
	if err != nil || res2.Len() != 1 {
		t.Errorf("optional ?: %v, %v", res2, err)
	}
}

// TestQueryRejectsProgramCalls: a call of a registered update program is
// an update request without any sign. Query and Prepare reject it as they
// reject a signed one, instead of reading a database that does not exist,
// and Load runs it as an exec. The check allocates nothing.
func TestQueryRejectsProgramCalls(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefinePrograms(stocks.ProgramInsStk...); err != nil {
		t.Fatal(err)
	}
	const call = "?.dbU.insStk(.stk=zz, .date=1/1/85, .price=3)"
	const read = "?.euter.r(.stkCode=zz, .clsPrice=P)"
	if _, err := db.Query(call); err == nil || !strings.Contains(err.Error(), "is an update request; use Exec") {
		t.Errorf("Query of a program call: err = %v", err)
	}
	if _, err := db.Prepare(call); err == nil || !strings.Contains(err.Error(), "is an update request; use Exec") {
		t.Errorf("Prepare of a program call: err = %v", err)
	}
	if res, err := db.Query(read); err != nil || res.Len() != 0 {
		t.Fatalf("after the rejected calls: %v, %v; want no zz quote", res, err)
	}
	out, err := db.Load(call)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Kind != "exec" {
		t.Fatalf("Load of a program call: %+v, want one exec", out)
	}
	if res, err := db.Query(read); err != nil || res.String() != "P\n3" {
		t.Fatalf("after Load: %v, %v; want the zz quote", res, err)
	}
	for _, src := range []string{call, read} {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { db.engine.IsUpdate(q) }); n != 0 {
			t.Errorf("IsUpdate(%s): %v allocations, want 0", src, n)
		}
	}
}

// TestProgramCallRouting drives call spellings through every entry
// point that routes by Engine.IsUpdate: the engine's own read, the
// facade's read, a script, and an update request. A registered call is
// an update everywhere and inserts its quote through Load and Exec; a
// signed spelling is an update but not a call; anything else is a read.
func TestProgramCallRouting(t *testing.T) {
	const (
		read   = iota // a query: answered by the read entry points
		call          // a registered program call
		signed        // an update request that is not a call
	)
	open := func() *DB {
		db := Open()
		seedStocks(t, db)
		if err := db.DefinePrograms(append(stocks.ProgramInsStk,
			".dbU.insZz(.price=P) -> .euter.r+(.stkCode=zz, .date=1/1/85, .clsPrice=P)",
			".dbU.insOne() -> .euter.r+(.stkCode=zz, .date=1/1/85, .clsPrice=1)")...); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		src  string
		kind int
	}{
		{"?.dbU.insStk(.stk=zz, .date=1/1/85, .price=3)", call},
		{"?.dbU.insZz(.price=4)", call},
		{"?.dbU.insOne()", call},
		{"?.dbU.insOne", call},
		{"?.euter.r(.stkCode=hp), .dbU.insZz(.price=5)", call},
		{"?+.dbU.insOne()", signed},
		{"?.dbU+.insOne()", signed},
		{"?.dbU.insOne+()", signed},
		{"?.dbU.nope(.stk=zz)", read},
		{"?.dbU.insZz.price=4", read},
	} {
		t.Run(tc.src, func(t *testing.T) {
			db := open()
			q, err := parser.ParseQuery(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			update := tc.kind != read
			if got := db.engine.IsUpdate(q); got != update {
				t.Fatalf("IsUpdate = %v, want %v", got, update)
			}
			if _, err := db.engine.Query(q); (err != nil) != update {
				t.Errorf("Engine.Query: err = %v, want an error: %v", err, update)
			}
			if _, err := db.Query(tc.src); update != (err != nil && strings.Contains(err.Error(), "is an update request; use Exec")) {
				t.Errorf("DB.Query: err = %v, want a rejection: %v", err, update)
			}
			// A failed script statement names how it ran.
			out, err := db.Load(tc.src)
			switch {
			case err == nil && len(out) == 1:
				if got := out[0].Kind == "exec"; got != update {
					t.Errorf("DB.Load ran it as %q, want an exec: %v", out[0].Kind, update)
				}
			case err == nil || update != strings.HasPrefix(err.Error(), "idl: request"):
				t.Errorf("DB.Load: %+v, %v; want it run as an exec: %v", out, err, update)
			}
			if tc.kind != call {
				return
			}
			if res, err := db.Query("?.euter.r(.stkCode=zz, .clsPrice=P)"); err != nil || res.Len() == 0 {
				t.Errorf("after DB.Load: %v, %v; want the call's zz quote", res, err)
			}
			if info, err := open().Exec(tc.src); err != nil || info.ElemsInserted == 0 {
				t.Errorf("DB.Exec: %+v, %v; want the call's quote inserted", info, err)
			}
		})
	}
}

func TestQueryRejectsUpdates(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if _, err := db.Query("?.euter.r+(.x=1)"); err == nil || !strings.Contains(err.Error(), "Exec") {
		t.Errorf("err = %v", err)
	}
}

func TestExecAndViews(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefineViews(
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	); err != nil {
		t.Fatal(err)
	}
	if got := db.Views(); len(got) != 2 {
		t.Errorf("views = %v", got)
	}
	info, err := db.Exec("?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=77)")
	if err != nil || info.ElemsInserted != 1 {
		t.Fatalf("exec: %+v, %v", info, err)
	}
	res, err := db.Query("?.dbO.dec(.clsPrice=P)")
	if err != nil || !res.Contains(RowOf("P", 77)) {
		t.Errorf("view after exec: %v, %v", res, err)
	}
}

func TestProgramsAndCall(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefinePrograms(
		".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
		".dbU.delStk(.stk=S, .date=D) -> .chwab.r(.date=D, .S-=X)",
		".dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)",
	); err != nil {
		t.Fatal(err)
	}
	if ps := db.Programs(); len(ps) != 1 || ps[0].Name != "delStk" {
		t.Errorf("programs = %v", ps)
	}
	info, err := db.Call("dbU", "delStk", map[string]any{"S": "hp", "D": Date(85, 3, 3)})
	if err != nil || !info.Changed() {
		t.Fatalf("call: %+v, %v", info, err)
	}
	res, _ := db.Query("?.euter.r(.stkCode=hp,.date=3/3/85)")
	if res.Bool() {
		t.Error("delStk should have deleted the euter tuple")
	}
	if _, err := db.Call("dbU", "delStk", map[string]any{"S": struct{}{}}); err == nil {
		t.Error("unsupported param type should fail")
	}
}

func TestLoadScript(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	script := `
		% unified view
		.dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P);
		.dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P);
		?.dbU.ins(.stk=new, .date=3/9/85, .price=9);
		?.dbI.p(.stk=new, .price=P)
	`
	results, err := db.Load(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	kinds := []string{"rule", "clause", "exec", "query"}
	for i, k := range kinds {
		if results[i].Kind != k {
			t.Errorf("result %d kind = %s, want %s", i, results[i].Kind, k)
		}
	}
	if last := results[3].Answer; last == nil || !last.Contains(RowOf("P", 9)) {
		t.Errorf("final query:\n%v", results[3].Answer)
	}
}

func TestLoadScriptErrors(t *testing.T) {
	db := Open()
	if _, err := db.Load("?.x("); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := db.Load(".v.p+(.x=X) <- .b.s(.y=Y)"); err == nil {
		t.Error("rule validation error should surface")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	path := filepath.Join(t.TempDir(), "u.idl")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Query("?.euter.r(.stkCode=S, .clsPrice>200)")
	if err != nil || res.Len() != 1 {
		t.Errorf("restored query: %v, %v", res, err)
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.idl")); err == nil {
		t.Error("missing snapshot should fail")
	}
}

func TestCatalogIntegration(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	dbs := db.Catalog().Databases()
	if len(dbs) != 3 {
		t.Errorf("databases = %v", dbs)
	}
	stats := db.Catalog().Stats()
	total := 0
	for _, s := range stats {
		total += s.Tuples
	}
	if total != 9+9+3 { // euter 9, ource 3×3, chwab 3
		t.Errorf("total tuples = %d", total)
	}
	// DDL through the catalog invalidates views.
	if err := db.DefineView(".v.codes+(.c=S) <- .euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query("?.v.codes(.c=C)")
	if res.Len() != 3 {
		t.Fatalf("codes = %d", res.Len())
	}
	if _, err := db.Catalog().Insert("euter", "r", Tup("date", Date(85, 3, 9), "stkCode", "x", "clsPrice", 1)); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query("?.v.codes(.c=C)")
	if res.Len() != 4 {
		t.Errorf("codes after insert = %d, want 4 (catalog change must invalidate views)", res.Len())
	}
}

func TestStatsExposed(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if _, err := db.Query("?.euter.r(.stkCode=hp)"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ElementsScanned == 0 {
		t.Error("stats should count scanned elements")
	}
}

func TestValueHelpers(t *testing.T) {
	tp := Tup("a", 1, "b", "x", "c", 2.5, "d", true, "e", SetOf(1, 2))
	if tp.Len() != 5 {
		t.Errorf("Tup len = %d", tp.Len())
	}
	d := Date(85, 3, 3)
	if d.Year != 1985 {
		t.Errorf("year = %d", d.Year)
	}
}
