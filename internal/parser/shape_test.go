package parser

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"idl/internal/ast"
	"idl/internal/lex"
	"idl/internal/object"
)

// checkStmt compares a statement read through the shape table with a
// fresh parse of the same source: shape fingerprint, literal vector
// (kind and value), update flag and rendering.
func checkStmt(t *testing.T, src string, st Stmt) {
	t.Helper()
	want, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("%q: fresh parse failed: %v", src, err)
	}
	wantFP, wantLits := ast.FingerprintLits(want, nil)
	fp, lits := ast.FingerprintLits(st.Query, nil)
	if st.Shape != nil {
		fp, lits = st.Shape.Fingerprint(), st.Lits
	}
	if fp != wantFP {
		t.Errorf("%q: fingerprint %x, fresh parse %x", src, fp, wantFP)
	}
	if len(lits) != len(wantLits) {
		t.Fatalf("%q: literals %v, fresh parse %v", src, lits, wantLits)
	}
	for i, v := range lits {
		if v.Kind() != wantLits[i].Kind() || v.Compare(wantLits[i]) != 0 {
			t.Errorf("%q: literal %d is %v (%v), fresh parse %v (%v)", src, i, v, v.Kind(), wantLits[i], wantLits[i].Kind())
		}
	}
	if got, want := ast.HasUpdate(st.Query.Body), ast.HasUpdate(want.Body); got != want {
		t.Errorf("%q: HasUpdate %v, fresh parse %v", src, got, want)
	}
	if got, want := st.String(), want.String(); got != want {
		t.Errorf("%q: renders %q, fresh parse %q", src, got, want)
	}
}

// parseShape reads src through tab and reports whether it was a hit: a
// statement the table did not parse.
func parseShape(t *testing.T, tab *Shapes, src string) (Stmt, bool) {
	t.Helper()
	misses := tab.Misses()
	st, err := tab.Parse(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return st, tab.Misses() == misses
}

// mustShape reads src through tab and requires a shape hit or miss.
func mustShape(t *testing.T, tab *Shapes, src string, hit bool) Stmt {
	t.Helper()
	st, got := parseShape(t, tab, src)
	if got != hit {
		t.Fatalf("%q: shape hit = %v, want %v", src, got, hit)
	}
	checkStmt(t, src, st)
	return st
}

// TestShapeHitBindsOwnLiterals: the paper's three point forms. The
// first statement of a key parses; a later one with other literals is a
// hit that binds and renders its own values, while a different stock
// (an identifier, so part of the key) is a shape of its own.
func TestShapeHitBindsOwnLiterals(t *testing.T) {
	var tab Shapes
	for _, form := range []string{
		"?.euter.r(.stkCode=hp, .date=%s, .clsPrice=P)",
		"?.chwab.r(.date=%s, .hp=P)",
		"?.ource.hp(.date=%s, .clsPrice=P)",
		".euter.r(.stkCode=hp, .date=%s, .clsPrice>2.5)",
		`?.euter.r(.stkCode="h p", .date=%s, .clsPrice>40, .note="x\ty")`,
	} {
		mustShape(t, &tab, fmt.Sprintf(form, "3/1/85"), false)
		st := mustShape(t, &tab, fmt.Sprintf(form, "3/3/85"), true)
		if st.Query.String() == st.String() {
			t.Errorf("%q: the representative renders like the hit; want its own literals", st.String())
		}
	}
	mustShape(t, &tab, "?.euter.r(.stkCode=ibm, .date=3/3/85, .clsPrice=P)", false)
	mustShape(t, &tab, "  ?.chwab.r(.date=1/2/86, .hp=P)\n", true)
	// Same-kind slots whose representative values coincide: each
	// statement's values must still land in their own slots.
	mustShape(t, &tab, "?.r(.a=1, .b=1, .c=X), X < 1", false)
	mustShape(t, &tab, "?.r(.a=2, .b=3, .c=X), X < 4", true)
}

// TestShapeStructuralLiterals: a quoted attribute name (`."x"`, or a
// numeric one, `."5"`) is a literal token but not a literal: statements
// that differ in one must not share an answer.
func TestShapeStructuralLiterals(t *testing.T) {
	var tab Shapes
	x := mustShape(t, &tab, `?.a."x"`, false)
	y := mustShape(t, &tab, `?.a."y"`, false)
	if x.String() != "?.a.x" || y.String() != "?.a.y" {
		t.Errorf("renderings %q, %q", x.String(), y.String())
	}
	if ast.Fingerprint(x.Query) == ast.Fingerprint(y.Query) {
		t.Error(`."x" and ."y" share a fingerprint`)
	}
	mustShape(t, &tab, `?.a."y"`, true)
	mustShape(t, &tab, `?.a."x"`, false) // replaced by ."y"'s entry
	mustShape(t, &tab, `?.r(."5"=X, .a=1)`, false)
	mustShape(t, &tab, `?.r(."5"=X, .a=2)`, true)
	mustShape(t, &tab, `?.r(."6"=X, .a=2)`, false)
}

// TestShapeNegativeLiterals: a unary minus folds into its number on
// every statement of the shape, and over a non-number it is `0 - t`,
// whose 0 comes before t's literals.
func TestShapeNegativeLiterals(t *testing.T) {
	var tab Shapes
	for _, pair := range [][2]string{
		{"?.r(.a=-5)", "?.r(.a=-7)"},
		{"?.r(.a=-(2.5), .b=--3)", "?.r(.a=-(1.25), .b=--4)"},
		{`?.r(.a="s", .b=Y), Y = -"t" + 4`, `?.r(.a="u", .b=Y), Y = -"v" + 9`},
		{"?.r(.a=X, .b=Y), Y = -X * 3", "?.r(.a=X, .b=Y), Y = -X * 4"},
	} {
		mustShape(t, &tab, pair[0], false)
		mustShape(t, &tab, pair[1], true)
	}
}

// TestShapeNameEqualsValue: `.hp=hp` — the attribute name and the value
// are the same identifier, and only the value is lifted; another value
// is another key.
func TestShapeNameEqualsValue(t *testing.T) {
	var tab Shapes
	mustShape(t, &tab, "?.chwab.r(.date=3/1/85, .hp=hp)", false)
	st := mustShape(t, &tab, "?.chwab.r(.date=3/2/85, .hp=hp)", true)
	if len(st.Lits) != 2 || st.Lits[1].Compare(object.Str("hp")) != 0 {
		t.Errorf("literals %v, want [3/2/85 hp]", st.Lits)
	}
	mustShape(t, &tab, "?.chwab.r(.date=3/2/85, .hp=ibm)", false)
}

// TestShapeMissesParseAsBefore: errors, update requests and multiple
// statements are exactly ParseQuery's; updates are not stored.
func TestShapeMissesParseAsBefore(t *testing.T) {
	var tab Shapes
	for _, src := range []string{"?bad(", "?.a.b(.c=13/1/85)", "?.a; ?.b", ".a.b <- .c.d", ""} {
		_, want := ParseQuery(src)
		for i := 0; i < 2; i++ {
			if _, err := tab.Parse(src); err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%q: error %v, ParseQuery's %v", src, err, want)
			}
		}
	}
	for _, src := range []string{"?.euter.r+(.stkCode=hp, .clsPrice=5)", "?.euter.r+(.stkCode=hp, .clsPrice=6)"} {
		if st := mustShape(t, &tab, src, false); st.Shape != nil {
			t.Errorf("%q: an update request returned a shape", src)
		}
	}
}

// TestShapeTableBound: the table holds at most shapeSlots shapes however
// many it sees, and a statement whose entry was displaced parses again
// with the same result.
func TestShapeTableBound(t *testing.T) {
	var tab Shapes
	const n = 3 * shapeSlots
	for i := range n {
		if _, err := tab.Parse(fmt.Sprintf("?.r(.a%d=%d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for i := range tab.slots {
		if tab.slots[i].Load() != nil {
			held++
		}
	}
	if held == 0 || held > shapeSlots {
		t.Fatalf("table holds %d shapes, bound %d", held, shapeSlots)
	}
	hits := 0
	for i := range n {
		src := fmt.Sprintf("?.r(.a%d=%d)", i, i+1)
		st, hit := parseShape(t, &tab, src)
		if hit {
			hits++
		}
		checkStmt(t, src, st)
	}
	if hits == 0 || hits > shapeSlots {
		t.Errorf("%d of %d statements hit, bound %d", hits, n, shapeSlots)
	}
}

// TestShapeConcurrent reads statements of a few shapes from several
// goroutines (run with -race): each gets its own literals.
func TestShapeConcurrent(t *testing.T) {
	var tab Shapes
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				src := fmt.Sprintf("?.euter.r(.stkCode=s%d, .date=1/%d/85, .clsPrice=P)", i%3, 1+(g+i)%28)
				st, err := tab.Parse(src)
				if err != nil {
					t.Error(err)
					return
				}
				if st.String() != src {
					t.Errorf("%q renders %q", src, st.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// relit rewrites every literal token of src whose index keep does not
// hold to another value of its kind, a value of its own: no two
// rewritten tokens share one, so a literal bound into another's slot
// shows. It reports false when the result does not lex to the same token
// kinds.
func relit(src string, keep func(int) bool) (string, bool) {
	src = querySource(src)
	toks, lerr := lex.Tokens(src)
	if lerr != nil {
		return "", false
	}
	var b strings.Builder
	prev := 0
	for i, tok := range toks {
		if !isLiteral(tok.Kind) || keep(i) {
			continue
		}
		repl := literalText(tok.Kind, 100+i)
		if repl == src[tok.Off:tok.End] {
			repl = literalText(tok.Kind, 100+i+len(toks))
		}
		b.WriteString(src[prev:tok.Off])
		b.WriteString(repl)
		prev = int(tok.End)
	}
	b.WriteString(src[prev:])
	out := b.String()
	again, lerr := lex.Tokens(out)
	if lerr != nil || len(again) != len(toks) {
		return "", false
	}
	for i := range toks {
		if again[i].Kind != toks[i].Kind {
			return "", false
		}
	}
	return out, true
}

// literalText is the n-th value of a literal kind, written as a token:
// distinct n give distinct values (dates for n below 30 240).
func literalText(k lex.Kind, n int) string {
	switch k {
	case lex.INT:
		return fmt.Sprint(n)
	case lex.FLOAT:
		return fmt.Sprintf("%d.5", n)
	case lex.DATE:
		return fmt.Sprintf("%d/%d/%d", 1+n%12, 1+n/12%28, 10+n/336%90)
	default:
		return fmt.Sprintf(`"v%d"`, n)
	}
}

// FuzzShape: for any query that parses, a second source with every
// literal token replaced by a value of its own of the same kind reads
// through the table as a fresh parse reads it — fingerprint, literal
// vector, HasUpdate and rendering. With the shape's structural literals
// kept, the second source must be a shape hit. Every read-only query's
// shape passes newShape's checks, which are a safety net, not a path any
// statement takes.
func FuzzShape(f *testing.F) {
	for _, s := range []string{
		"?.euter.r(.stkCode=hp, .date=3/3/85, .clsPrice=P)",
		"?.chwab.r(.date=3/3/85, .hp=hp)",
		`?.a."quoted attr"(.x="string", .y=2.5e3)`,
		"?.x.y(.a<-5, .b=-(2.5))",
		"?.r(.a=X), Y = -X * 3, Y > 2",
		"?~.x.y(.z=(1+2)*3)",
		"?.a.r(~X*2=4, .b=X)",
		"?.5 .x",
		"?.r(.a=1, .b=1, .c=1/1/85, .d=1/1/85)",
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		var tab Shapes
		first, hit := parseShape(t, &tab, src)
		if hit {
			t.Fatalf("%q: a hit in an empty table", src)
		}
		checkStmt(t, src, first)
		s := storedShape(&tab, src)
		if update := ast.HasUpdate(q.Body); update != (s == nil) || s != first.Shape {
			t.Fatalf("%q: update request %v, stored shape %v, returned shape %v", src, update, s != nil, first.Shape != nil)
		}
		if s != nil {
			fixed := map[int]bool{}
			for _, i := range s.fixed {
				fixed[int(i)] = true
			}
			if values, ok := relit(src, func(i int) bool { return fixed[i] }); ok {
				st, hit := parseShape(t, &tab, values)
				if !hit {
					t.Fatalf("%q: its shape is stored, but %q (same key, same attribute names) missed", src, values)
				}
				checkStmt(t, values, st)
			}
		}
		all, ok := relit(src, func(int) bool { return false })
		if !ok {
			return
		}
		if _, err := ParseQuery(all); err != nil {
			t.Fatalf("%q parses but %q, its literals replaced, does not: %v", src, all, err)
		}
		st, err := tab.Parse(all)
		if err != nil {
			t.Fatal(err)
		}
		checkStmt(t, all, st)
	})
}

// storedShape returns the shape tab holds for src's key, nil if none.
func storedShape(tab *Shapes, src string) *Shape {
	src = querySource(src)
	toks, lerr := lex.Tokens(src)
	if lerr != nil {
		return nil
	}
	a, b := tab.slotsFor(shapeHash(toks, src))
	for _, s := range []*Shape{a.Load(), b.Load()} {
		if s != nil && s.keyMatches(toks, src) {
			return s
		}
	}
	return nil
}
