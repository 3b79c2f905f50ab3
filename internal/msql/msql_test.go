package msql

import (
	"sort"
	"strings"
	"testing"

	"idl/internal/core"
	"idl/internal/object"
	"idl/internal/stocks"
)

// twoEuters builds a universe with two euter-schema databases (the shape
// MSQL broadcasts handle) plus the chwab/ource schemas (which it cannot).
func twoEuters(t testing.TB) *object.Tuple {
	t.Helper()
	u, _ := stocks.Universe(stocks.Config{Stocks: 4, Days: 3, Seed: 3})
	// Clone euter as euter2 with one extra row.
	euter, _ := u.Get("euter")
	euter2 := euter.Clone().(*object.Tuple)
	rel, _ := euter2.Get("r")
	rel.(*object.Set).Add(object.TupleOf(
		"date", object.NewDate(85, 2, 1), "stkCode", "extra", "clsPrice", 999))
	u.Put("euter2", euter2)
	return u
}

func TestParseBasics(t *testing.T) {
	st, err := Parse("SELECT r.stkCode FROM euter.r WHERE r.clsPrice > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 1 || st.Select[0].Attr != "stkCode" {
		t.Errorf("select = %+v", st.Select)
	}
	if len(st.From) != 1 || st.From[0].DB != "euter" || st.From[0].Rel != "r" {
		t.Errorf("from = %+v", st.From)
	}
	if len(st.Where) != 1 || st.Where[0].Op != ">" {
		t.Errorf("where = %+v", st.Where)
	}
}

func TestParseUnqualifiedWithSingleFrom(t *testing.T) {
	st, err := Parse("SELECT stkCode FROM euter.r WHERE clsPrice > 100")
	if err != nil {
		t.Fatal(err)
	}
	if st.Select[0].Alias != "r" {
		t.Errorf("alias defaulting failed: %+v", st.Select[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM euter.r",
		"SELECT x FROM",
		"SELECT x FROM euter",
		"SELECT x FROM euter.r WHERE",
		"SELECT x FROM euter.r WHERE a ! b",
		"SELECT a.x FROM euter.r b",      // unknown alias a
		"SELECT x FROM a.r one, b.r one", // duplicate alias
		"SELECT x, y FROM a.r one, b.s two WHERE x = 1", // ambiguous unqualified
		"SELECT &Z FROM euter.r",                        // unknown db variable
		"SELECT x FROM euter.r WHERE a = 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestExecSingleDatabase(t *testing.T) {
	u := twoEuters(t)
	st, err := Parse("SELECT r.stkCode, r.clsPrice FROM euter2.r WHERE r.clsPrice > 500")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Exec(st, u)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || !rs.Rows[0][0].Equal(object.Str("extra")) {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestExecBroadcastOverDatabases(t *testing.T) {
	u := twoEuters(t)
	// MSQL's signature: &D ranges over databases holding relation r —
	// euter, euter2 and chwab here (chwab also has r!).
	st, err := Parse("SELECT &D, r.stkCode FROM &D.r WHERE r.clsPrice > 500")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Exec(st, u)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || !rs.Rows[0][0].Equal(object.Str("euter2")) {
		t.Errorf("rows = %v", rs.Rows)
	}
	// Broadcast with a weaker predicate matches euter AND euter2 rows.
	st, _ = Parse("SELECT &D FROM &D.r WHERE r.stkCode = 'stk001'")
	rs, err = Exec(st, u)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Errorf("databases quoting stk001 = %v", rs.Rows)
	}
}

func TestExecJoinAcrossDatabases(t *testing.T) {
	u := twoEuters(t)
	// Stocks with the same price in euter and euter2 on the same day.
	st, err := Parse("SELECT a.stkCode FROM euter.r a, euter2.r b WHERE a.stkCode = b.stkCode AND a.date = b.date AND a.clsPrice = b.clsPrice")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Exec(st, u)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 4 { // all four stocks agree (euter2 is a clone)
		t.Errorf("rows = %v", rs.Rows)
	}
}

// TestMSQLCannotReachMetadata documents the expressiveness boundary: the
// chwab/ource schemas hold the stock in attribute/relation position, and
// no MSQL statement of this subset can enumerate those names. The best
// MSQL can do is a query PER STOCK, written by someone who already knows
// the schema.
func TestMSQLCannotReachMetadata(t *testing.T) {
	// Against chwab, "any stock above X" must name each column:
	perColumn := []string{
		"SELECT r.date FROM chwab.r WHERE r.stk001 > 100",
		"SELECT r.date FROM chwab.r WHERE r.stk002 > 100",
		// … one statement per stock: program size grows with the schema.
	}
	for _, src := range perColumn {
		if _, err := Parse(src); err != nil {
			t.Fatalf("per-column fallback should parse: %v", err)
		}
	}
	// There is no syntax for "some column > 100": '&' variables range
	// over databases only.
	if _, err := Parse("SELECT &A FROM chwab.r WHERE r.&A > 100"); err == nil {
		t.Error("attribute variables must not parse — that is IDL's contribution")
	}
}

// TestTranslationAgreesWithIDL is the subsumption check: every MSQL
// statement, compiled to IDL, produces the same result set.
func TestTranslationAgreesWithIDL(t *testing.T) {
	u := twoEuters(t)
	e := core.NewEngine()
	u.Each(func(db string, v object.Object) bool {
		e.Base().Put(db, v)
		return true
	})
	e.Invalidate()

	statements := []string{
		"SELECT r.stkCode, r.clsPrice FROM euter.r WHERE r.clsPrice > 100",
		"SELECT r.stkCode FROM euter.r",
		"SELECT &D, r.stkCode FROM &D.r WHERE r.clsPrice > 500",
		"SELECT &D FROM &D.r WHERE r.stkCode = 'stk001'",
		"SELECT a.stkCode FROM euter.r a, euter2.r b WHERE a.stkCode = b.stkCode AND a.clsPrice = b.clsPrice",
		"SELECT a.stkCode, b.clsPrice FROM euter.r a, euter2.r b WHERE a.stkCode = b.stkCode AND b.clsPrice > 900",
	}
	for _, src := range statements {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		direct, err := Exec(st, u)
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		q, columns, err := Translate(st)
		if err != nil {
			t.Fatalf("translate %q: %v", src, err)
		}
		ans, err := e.Query(q)
		if err != nil {
			t.Fatalf("IDL exec of translated %q (%s): %v", src, q, err)
		}
		// Compare canonical renderings.
		got := renderIDL(ans, st, columns)
		want := direct.Canonical()
		if got != want {
			t.Errorf("translation disagreement for %q:\nIDL:\n%s\nMSQL:\n%s\n(translated: %s)",
				src, got, want, q)
		}
	}
}

// renderIDL projects an IDL answer onto the statement's column order and
// renders it like ResultSet.Canonical.
func renderIDL(ans *core.Answer, st *Statement, columns map[string]string) string {
	var headers []string
	for _, s := range st.Select {
		if s.DBVar != "" {
			headers = append(headers, "&"+s.DBVar)
		} else {
			headers = append(headers, s.Alias+"."+s.Attr)
		}
	}
	seen := map[string]bool{}
	var lines []string
	for _, row := range ans.Rows() {
		cells := make([]string, len(headers))
		for i, h := range headers {
			v := row.Get(columns[h])
			if v == nil {
				cells[i] = "_"
				continue
			}
			cells[i] = v.String()
		}
		line := strings.Join(cells, "\t")
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(headers, "\t") + "\n" + strings.Join(lines, "\n")
}

func TestExecErrors(t *testing.T) {
	u := twoEuters(t)
	st, err := Parse("SELECT r.x FROM missing.r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(st, u); err == nil {
		t.Error("missing database should fail")
	}
	st, err = Parse("SELECT missing.x FROM euter.missing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(st, u); err == nil {
		t.Error("missing relation should fail")
	}
}

func TestCanonicalStable(t *testing.T) {
	rs := &ResultSet{
		Columns: []string{"a"},
		Rows:    [][]object.Object{{object.Int(2)}, {object.Int(1)}},
	}
	want := "a\n1\n2"
	if got := rs.Canonical(); got != want {
		t.Errorf("Canonical = %q", got)
	}
}
