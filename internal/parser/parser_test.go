package parser

import (
	"testing"

	"idl/internal/ast"
	"idl/internal/object"
)

func mustQuery(t *testing.T, src string) *ast.Query {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

func TestSimpleAtomicQuery(t *testing.T) {
	q := mustQuery(t, "?.euter.r(.stkCode=hp, .clsPrice>60)")
	if len(q.Body.Conjuncts) != 1 {
		t.Fatalf("conjuncts = %d", len(q.Body.Conjuncts))
	}
	euter := q.Body.Conjuncts[0].(*ast.AttrExpr)
	if name := euter.Name.(ast.Const).Value; !name.Equal(object.Str("euter")) {
		t.Fatalf("outer attr = %v", name)
	}
	inner := euter.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	if name := inner.Name.(ast.Const).Value; !name.Equal(object.Str("r")) {
		t.Fatalf("inner attr = %v", name)
	}
	set, ok := inner.Expr.(*ast.SetExpr)
	if !ok {
		t.Fatalf("expected SetExpr, got %T", inner.Expr)
	}
	tup := set.X.(*ast.TupleExpr)
	if len(tup.Conjuncts) != 2 {
		t.Fatalf("tuple conjuncts = %d", len(tup.Conjuncts))
	}
	stk := tup.Conjuncts[0].(*ast.AttrExpr)
	at := stk.Expr.(*ast.Atomic)
	if at.Op != ast.OpEQ || !at.Term.(ast.Const).Value.Equal(object.Str("hp")) {
		t.Errorf("stkCode atomic = %v", at)
	}
	price := tup.Conjuncts[1].(*ast.AttrExpr)
	pa := price.Expr.(*ast.Atomic)
	if pa.Op != ast.OpGT || !pa.Term.(ast.Const).Value.Equal(object.Int(60)) {
		t.Errorf("clsPrice atomic = %v", pa)
	}
}

func TestConjunctionSharedVariables(t *testing.T) {
	q := mustQuery(t, "?.euter.r(.stkCode=hp,.date=D), .euter.r(.stkCode=ibm,.date=D)")
	if len(q.Body.Conjuncts) != 2 {
		t.Fatalf("conjuncts = %d", len(q.Body.Conjuncts))
	}
	vars := ast.Vars(q.Body)
	if len(vars) != 1 || vars[0] != "D" {
		t.Errorf("vars = %v", vars)
	}
}

func TestNegationSuffix(t *testing.T) {
	// Paper: ?.euter.r~(.stkCode=hp, .clsPrice>P)
	q := mustQuery(t, "?.euter.r~(.stkCode=hp, .clsPrice>P)")
	euter := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := euter.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	not, ok := r.Expr.(*ast.Not)
	if !ok {
		t.Fatalf("expected Not, got %T", r.Expr)
	}
	if _, ok := not.X.(*ast.SetExpr); !ok {
		t.Fatalf("expected negated SetExpr, got %T", not.X)
	}
}

func TestNegatedConjunct(t *testing.T) {
	q := mustQuery(t, "?~.euter.r(.stkCode=hp)")
	if _, ok := q.Body.Conjuncts[0].(*ast.Not); !ok {
		t.Fatalf("expected Not conjunct, got %T", q.Body.Conjuncts[0])
	}
}

func TestHigherOrderVariables(t *testing.T) {
	q := mustQuery(t, "?.X.Y(.stkCode)")
	outer := q.Body.Conjuncts[0].(*ast.AttrExpr)
	if _, ok := outer.Name.(ast.Var); !ok {
		t.Fatalf("outer name should be a variable, got %T", outer.Name)
	}
	hov := ast.HigherOrderVars(q.Body)
	if len(hov) != 2 || hov[0] != "X" || hov[1] != "Y" {
		t.Errorf("higher-order vars = %v", hov)
	}
	// .stkCode inside has epsilon suffix.
	inner := outer.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	set := inner.Expr.(*ast.SetExpr)
	attr := set.X.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	if _, ok := attr.Expr.(ast.Epsilon); !ok {
		t.Errorf("expected epsilon suffix, got %T", attr.Expr)
	}
}

func TestBareDatabaseQuery(t *testing.T) {
	q := mustQuery(t, "?.X")
	a := q.Body.Conjuncts[0].(*ast.AttrExpr)
	if _, ok := a.Expr.(ast.Epsilon); !ok {
		t.Errorf("expected epsilon, got %T", a.Expr)
	}
}

func TestConstraintConjunct(t *testing.T) {
	q := mustQuery(t, "?.X.Y, X = ource")
	c, ok := q.Body.Conjuncts[1].(*ast.Constraint)
	if !ok {
		t.Fatalf("expected Constraint, got %T", q.Body.Conjuncts[1])
	}
	if c.Op != ast.OpEQ {
		t.Errorf("op = %v", c.Op)
	}
	if v, ok := c.L.(ast.Var); !ok || v.Name != "X" {
		t.Errorf("lhs = %v", c.L)
	}
}

// A set expression's first constraint may open with a parenthesised term,
// as every printed arithmetic term does: the parenthesis is the term's,
// not a nested set expression's, and a leading negation covers the one
// conjunct.
func TestParenthesisedConstraintInSet(t *testing.T) {
	for _, src := range []string{"?.a.r(X*2=4, .b=X)", "?.a.r(~X*2=4, .b=X)"} {
		q := mustQuery(t, src)
		printed := q.String()
		again := mustQuery(t, printed)
		if again.String() != printed {
			t.Fatalf("%q: unstable round trip %q -> %q", src, printed, again.String())
		}
		r := again.Body.Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
		conj := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr).Conjuncts
		if len(conj) != 2 {
			t.Fatalf("%q: %d conjuncts, want 2", printed, len(conj))
		}
		first := conj[0]
		if n, ok := first.(*ast.Not); ok {
			first = n.X
		}
		if _, ok := first.(*ast.Constraint); !ok {
			t.Fatalf("%q: first conjunct is %T, want a (negated) Constraint", printed, first)
		}
	}
	if _, err := ParseQuery("?.a.r((X*2)"); err == nil {
		t.Fatal("unbalanced parenthesis parsed")
	}
}

func TestDateLiterals(t *testing.T) {
	q := mustQuery(t, "?.euter.r(.date=3/3/85)")
	euter := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := euter.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	at := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.Atomic)
	d, ok := at.Term.(ast.Const).Value.(object.Date)
	if !ok || d.Year != 1985 || d.Month != 3 || d.Day != 3 {
		t.Errorf("date = %v", at.Term)
	}
}

func TestInsertSetExpression(t *testing.T) {
	q := mustQuery(t, "?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)")
	euter := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := euter.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	set := r.Expr.(*ast.SetExpr)
	if set.Sign != ast.SignPlus {
		t.Fatalf("sign = %v", set.Sign)
	}
	if !ast.HasUpdate(q.Body) {
		t.Error("HasUpdate should be true")
	}
}

func TestDeleteSetExpression(t *testing.T) {
	q := mustQuery(t, "?.euter.r-(.date=3/3/85,.stkCode=hp)")
	euter := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := euter.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	set := r.Expr.(*ast.SetExpr)
	if set.Sign != ast.SignMinus {
		t.Fatalf("sign = %v", set.Sign)
	}
}

func TestAtomicMinusSugar(t *testing.T) {
	// `.hp-=C` — atomic minus applied to the hp value (nulls it out).
	q := mustQuery(t, "?.chwab.r(.date=3/3/85, .hp-=C)")
	chwab := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := chwab.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	tup := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr)
	hp := tup.Conjuncts[1].(*ast.AttrExpr)
	at := hp.Expr.(*ast.Atomic)
	if at.Sign != ast.SignMinus || at.Op != ast.OpEQ {
		t.Errorf("atomic = %+v", at)
	}
}

func TestAttributeDelete(t *testing.T) {
	// `-.hp=C` — tuple minus: delete the hp attribute.
	q := mustQuery(t, "?.chwab.r(.date=3/3/85, -.hp=C)")
	chwab := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := chwab.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	tup := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr)
	hp := tup.Conjuncts[1].(*ast.AttrExpr)
	if hp.Sign != ast.SignMinus {
		t.Errorf("attr sign = %v", hp.Sign)
	}
}

func TestRelationDelete(t *testing.T) {
	// `.ource-.S` — tuple minus on the database tuple: drop relation S.
	q := mustQuery(t, "?.ource-.S")
	ource := q.Body.Conjuncts[0].(*ast.AttrExpr)
	inner := ource.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	if inner.Sign != ast.SignMinus {
		t.Fatalf("sign = %v", inner.Sign)
	}
	if _, ok := inner.Name.(ast.Var); !ok {
		t.Fatalf("name should be var, got %T", inner.Name)
	}
}

func TestBareAttributeDeleteInSet(t *testing.T) {
	// `.chwab.r(-.S)` — delete attribute S from every tuple of r.
	q := mustQuery(t, "?.chwab.r(-.S)")
	chwab := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := chwab.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	tup := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr)
	s := tup.Conjuncts[0].(*ast.AttrExpr)
	if s.Sign != ast.SignMinus {
		t.Errorf("sign = %v", s.Sign)
	}
	if _, ok := s.Expr.(ast.Epsilon); !ok {
		t.Errorf("expr should be epsilon, got %T", s.Expr)
	}
}

func TestArithmeticInTerm(t *testing.T) {
	q := mustQuery(t, "?.chwab.r+(.date=3/3/85,.hp=C+10)")
	chwab := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := chwab.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	tup := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr)
	hp := tup.Conjuncts[1].(*ast.AttrExpr)
	at := hp.Expr.(*ast.Atomic)
	ar, ok := at.Term.(ast.Arith)
	if !ok || ar.Op != '+' {
		t.Fatalf("term = %#v", at.Term)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	q := mustQuery(t, "?.x.r(.a=B+2*3)")
	x := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := x.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	at := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.Atomic)
	add := at.Term.(ast.Arith)
	if add.Op != '+' {
		t.Fatalf("top op = %c", add.Op)
	}
	mul, ok := add.R.(ast.Arith)
	if !ok || mul.Op != '*' {
		t.Fatalf("rhs = %#v", add.R)
	}
}

func TestNegativeNumbers(t *testing.T) {
	q := mustQuery(t, "?.x.r(.a<-5)")
	x := q.Body.Conjuncts[0].(*ast.AttrExpr)
	r := x.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	at := r.Expr.(*ast.SetExpr).X.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr).Expr.(*ast.Atomic)
	if at.Op != ast.OpLT || !at.Term.(ast.Const).Value.Equal(object.Int(-5)) {
		t.Errorf("atomic = %v %v", at.Op, at.Term)
	}
}

func TestRuleParsing(t *testing.T) {
	src := ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)"
	r, err := ParseRule(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Head.Conjuncts) != 1 || len(r.Body.Conjuncts) != 1 {
		t.Fatalf("head/body conjuncts = %d/%d", len(r.Head.Conjuncts), len(r.Body.Conjuncts))
	}
	// Unicode arrow too.
	r2, err := ParseRule(".a.b+(.x=Y) ← .c.d(.x=Y)")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Head == nil {
		t.Fatal("nil head")
	}
}

func TestClauseParsing(t *testing.T) {
	src := ".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)"
	c, err := ParseClause(src)
	if err != nil {
		t.Fatal(err)
	}
	head := c.Head.Conjuncts[0].(*ast.AttrExpr)
	if !head.Name.(ast.Const).Value.Equal(object.Str("dbU")) {
		t.Errorf("head db = %v", head.Name)
	}
	// Unicode arrow.
	if _, err := ParseClause(".a.f(.x=Y) → .b.r-(.k=Y)"); err != nil {
		t.Fatal(err)
	}
}

func TestParseProgramMultiStatement(t *testing.T) {
	src := `
		% unified view over euter
		.dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P);
		.dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P);
		?.dbI.p(.stk=hp, .price>60)
	`
	stmts, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
	if _, ok := stmts[0].(*ast.Rule); !ok {
		t.Errorf("stmt 0 = %T", stmts[0])
	}
	if _, ok := stmts[2].(*ast.Query); !ok {
		t.Errorf("stmt 2 = %T", stmts[2])
	}
}

func TestTrailingPeriodTolerated(t *testing.T) {
	if _, err := ParseProgram("?.euter.r(.stkCode=hp).; ?.X."); err != nil {
		t.Fatal(err)
	}
}

func TestQuotedAttributeNames(t *testing.T) {
	q := mustQuery(t, `?.euter."weird name"(.x=1)`)
	a := q.Body.Conjuncts[0].(*ast.AttrExpr)
	inner := a.Expr.(*ast.TupleExpr).Conjuncts[0].(*ast.AttrExpr)
	if !inner.Name.(ast.Const).Value.Equal(object.Str("weird name")) {
		t.Errorf("name = %v", inner.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"?",
		"?.",
		"?.x(",
		"?.x(.a=)",
		"?.x.y(.a=1",
		".a.b(.x=Y)",         // no arrow
		".a.b(.x=Y) <-",      // missing body
		"?.x.y(.a ~)",        // dangling negation
		"?.x +",              // dangling sign
		"? X",                // constraint without operator
		"?.x.y(.a=1) extra",  // trailing garbage
		"?.x.y(.a+<5)",       // signed non-equality atomic
		"@?",                 // lex error surfaces as parse error
		"?.x.y(.a=1)) ; ?.z", // unbalanced paren
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) should fail", src)
		}
	}
}

func TestParseSingleRejectsMulti(t *testing.T) {
	if _, err := Parse("?.x ; ?.y"); err == nil {
		t.Error("Parse should reject multiple statements")
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse should reject empty input")
	}
	if stmts, err := ParseProgram(""); err != nil || len(stmts) != 0 {
		t.Errorf("ParseProgram of empty input = %v, %v", stmts, err)
	}
}

func TestParseQueryRejectsRule(t *testing.T) {
	if _, err := ParseQuery(".a.b(.x=Y) <- .c.d(.x=Y)"); err == nil {
		t.Error("ParseQuery should reject a rule")
	}
}

// TestRoundTrip checks String() output re-parses to the same rendering for
// every statement in the paper.
func TestRoundTrip(t *testing.T) {
	sources := []string{
		"?.euter.r(.stkCode=hp, .clsPrice>60)",
		"?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
		"?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P)",
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.X",
		"?.ource.Y",
		"?.X.Y, X = ource",
		"?.X.hp",
		"?.X.Y(.stkCode)",
		"?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
		"?.euter.Y, .chwab.Y, .ource.Y",
		"?.chwab.r(.S>200)",
		"?.ource.S(.clsPrice > 200)",
		"?.chwab.r(.date=3/3/85,.hp = 50)",
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
		"?.euter.r-(.date=3/3/85,.stkCode=hp)",
		"?.euter.r(.date=3/3/85,.stkCode=hp,.clsPrice=C),.euter.r-(.date=3/3/85,.stkCode=hp,.clsPrice=C)",
		"?.chwab.r(.date=3/3/85, .hp-=C)",
		"?.chwab.r(.date=3/3/85, -.hp=C)",
		"?.chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)",
		"?.chwab.r(-.S)",
		"?.ource-.S",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
		".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
		".dbU.delStk(.stk=S, .date=D) -> .chwab.r(.date=D, .S-=X)",
		".dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)",
		".dbU.rmStk(.stk=S) -> .euter.r-(.stkCode=S)",
		".dbU.rmStk(.stk=S) -> .chwab.r(-.S)",
		".dbU.rmStk(.stk=S) -> .ource-.S",
		".dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P)",
	}
	for _, src := range sources {
		st1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := st1.String()
		st2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, printed, err)
			continue
		}
		if st2.String() != printed {
			t.Errorf("round-trip not stable:\n src: %s\n  p1: %s\n  p2: %s", src, printed, st2.String())
		}
	}
}
