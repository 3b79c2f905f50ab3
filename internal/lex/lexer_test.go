package lex

import (
	"testing"
)

// lexAll lexes src, ignoring the error: the tests that want it call
// Tokens themselves.
func lexAll(src string) []Token {
	toks, _ := Tokens(src)
	return toks
}

func kinds(src string) []Kind {
	var ks []Kind
	for _, t := range lexAll(src) {
		ks = append(ks, t.Kind)
	}
	return ks
}

func assertKinds(t *testing.T, src string, want ...Kind) {
	t.Helper()
	want = append(want, EOF)
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("lex(%q): got %d tokens %v, want %d %v", src, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("lex(%q)[%d] = %v, want %v (all: %v)", src, i, got[i], want[i], got)
		}
	}
}

func TestPunctuation(t *testing.T) {
	assertKinds(t, "? . , ( ) ; + - *",
		QUESTION, DOT, COMMA, LPAREN, RPAREN, SEMI, PLUS, MINUS, STAR)
}

func TestRelops(t *testing.T) {
	assertKinds(t, "= != < <= > >=", EQ, NE, LT, LE, GT, GE)
	assertKinds(t, "≠ ≤ ≥", NE, LE, GE)
}

func TestArrowsAndNegation(t *testing.T) {
	assertKinds(t, "<- -> ← → ~ ! ¬", LARROW, RARROW, LARROW, RARROW, NOT, NOT, NOT)
	// `<-5` reads as a comparison with a negative number, not an arrow.
	assertKinds(t, "<-5", LT, MINUS, INT)
	// `!=` is NE, bare `!` is NOT.
	assertKinds(t, "!=1 !x", NE, INT, NOT, IDENT)
}

func TestWords(t *testing.T) {
	src := ".euter.r(.stkCode=hp, .clsPrice>60)"
	toks := lexAll(src)
	wantKinds := []Kind{DOT, IDENT, DOT, IDENT, LPAREN, DOT, IDENT, EQ,
		IDENT, COMMA, DOT, IDENT, GT, INT, RPAREN, EOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[1].Text(src) != "euter" || toks[8].Text(src) != "hp" || toks[13].Text(src) != "60" {
		t.Errorf("token text wrong: %v %v %v", toks[1], toks[8], toks[13])
	}
}

func TestVariablesVsIdentifiers(t *testing.T) {
	src := "X stkCode Price _x Y2 Éa éa"
	toks := lexAll(src)
	want := []struct {
		kind Kind
		text string
	}{
		{VAR, "X"}, {IDENT, "stkCode"}, {VAR, "Price"}, {IDENT, "_x"}, {VAR, "Y2"},
		{VAR, "Éa"}, {IDENT, "éa"},
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text(src) != w.text {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestNumbers(t *testing.T) {
	src := "42 2.5 0.125 1e3 7e 50 2.5E-1 9223372036854775807"
	toks := lexAll(src)
	if toks[0].Kind != INT || toks[0].Int(src) != 42 || toks[0].Text(src) != "42" {
		t.Errorf("42: %v", toks[0])
	}
	if toks[1].Kind != FLOAT || toks[1].Float(src) != 2.5 || toks[1].Text(src) != "2.5" {
		t.Errorf("2.5: %v", toks[1])
	}
	if toks[2].Kind != FLOAT || toks[2].Float(src) != 0.125 {
		t.Errorf("0.125: %v", toks[2])
	}
	if toks[3].Kind != FLOAT || toks[3].Float(src) != 1000 || toks[3].Text(src) != "1e3" {
		t.Errorf("1e3: %v", toks[3])
	}
	// "7e" is INT 7 then IDENT e.
	if toks[4].Kind != INT || toks[4].Int(src) != 7 || toks[5].Kind != IDENT || toks[5].Text(src) != "e" {
		t.Errorf("7e: %v %v", toks[4], toks[5])
	}
	if toks[6].Kind != INT || toks[6].Int(src) != 50 {
		t.Errorf("50: %v", toks[6])
	}
	if toks[7].Kind != FLOAT || toks[7].Float(src) != 0.25 {
		t.Errorf("2.5E-1: %v", toks[7])
	}
	if toks[8].Kind != INT || toks[8].Int(src) != 9223372036854775807 {
		t.Errorf("max int64: %v", toks[8])
	}
}

func TestLeadingDotFloat(t *testing.T) {
	// A digit after '.' lexes as a float, not a path dot.
	src := ".5 .x"
	toks := lexAll(src)
	if toks[0].Kind != FLOAT || toks[0].Float(src) != 0.5 || toks[0].Text(src) != ".5" {
		t.Errorf(".5: %v", toks[0])
	}
	if toks[1].Kind != DOT || toks[2].Kind != IDENT {
		t.Errorf(".x: %v %v", toks[1], toks[2])
	}
}

func TestDates(t *testing.T) {
	src := "3/3/85 12/31/1999"
	toks := lexAll(src)
	if y, m, d := toks[0].Date(src); toks[0].Kind != DATE || m != 3 || d != 3 || y != 85 || toks[0].Text(src) != "3/3/85" {
		t.Fatalf("3/3/85: %+v", toks[0])
	}
	if y, m, d := toks[1].Date(src); toks[1].Kind != DATE || m != 12 || d != 31 || y != 1999 {
		t.Fatalf("12/31/1999: %+v", toks[1])
	}
	// Out-of-range month is an error token.
	toks = lexAll("13/1/85")
	if toks[0].Kind != ERROR {
		t.Errorf("13/1/85 should be an error, got %v", toks[0])
	}
	// A lone slash after a number is an error (no division operator).
	toks = lexAll("3/4")
	if toks[0].Kind != ERROR {
		t.Errorf("3/4 should be a malformed date error, got %v", toks[0])
	}
}

func TestStrings(t *testing.T) {
	src := `"hello world" "esc\"aped" "é\u00e9"`
	toks := lexAll(src)
	if toks[0].Kind != STRING || toks[0].Text(src) != "hello world" {
		t.Errorf("string 1: %v", toks[0])
	}
	if toks[1].Kind != STRING || toks[1].Text(src) != `esc"aped` {
		t.Errorf("string 2: %v", toks[1])
	}
	if toks[2].Kind != STRING || toks[2].Text(src) != "éé" {
		t.Errorf("string 3: %v", toks[2])
	}
	toks = lexAll("\"unterminated")
	if toks[0].Kind != ERROR {
		t.Errorf("unterminated string should error, got %v", toks[0])
	}
	toks = lexAll("\"across\nlines\"")
	if toks[0].Kind != ERROR {
		t.Errorf("newline in string should error, got %v", toks[0])
	}
}

func TestComments(t *testing.T) {
	assertKinds(t, "% whole line\nx", IDENT)
	assertKinds(t, "x // trailing\ny", IDENT, IDENT)
	assertKinds(t, "x%comment", IDENT)
}

func TestPositions(t *testing.T) {
	src := "ab\n  cd\n\té.ü\xff x"
	toks := lexAll(src)
	want := []Pos{{1, 1}, {2, 3}, {3, 2}, {3, 3}, {3, 4}, {3, 5}, {3, 7}, {3, 8}}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if got := PosAt(src, int(toks[i].Off)); got != w {
			t.Errorf("token %d (%s) at %v, want %v", i, toks[i].Describe(src), got, w)
		}
	}
	if got := PosAt(src, len(src)+5); got != (Pos{3, 8}) {
		t.Errorf("offset past the end at %v, want 3:8", got)
	}
}

func TestErrorRecovery(t *testing.T) {
	src := "@ x 13/1/85 y"
	toks, err := Tokens(src)
	if toks[0].Kind != ERROR || toks[0].Text(src) != "@" {
		t.Fatalf("expected error token, got %v", toks[0])
	}
	if toks[1].Kind != IDENT || toks[1].Text(src) != "x" {
		t.Fatalf("lexer should recover after error, got %v", toks[1])
	}
	if toks[2].Kind != ERROR || toks[2].Text(src) != "13/1/85" || toks[3].Text(src) != "y" {
		t.Fatalf("second error token: %v %v", toks[2], toks[3])
	}
	// The first error is the one returned.
	if err == nil || err.Msg != "unexpected character '@'" || err.Off != 0 {
		t.Fatalf("first error = %+v", err)
	}
	if _, err := Tokens("x y"); err != nil {
		t.Fatalf("clean input reported %v", err)
	}
}

func TestPaperQueriesLex(t *testing.T) {
	// Every query string from the paper must lex without error tokens.
	queries := []string{
		"?.euter.r(.stkCode=hp, .clsPrice>60)",
		"?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
		"?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P)",
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.X", "?.ource.Y", "?.X.Y", "?.X.hp", "?.X.Y(.stkCode)",
		"?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
		"?.euter.Y, .chwab.Y, .ource.Y",
		"?.chwab.r(.S>200)",
		"?.ource.S(.clsPrice > 200)",
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
		"?.euter.r-(.date=3/3/85,.stkCode=hp)",
		"?.chwab.r(.date=3/3/85, .hp-=C)",
		"?.chwab.r(.date=3/3/85, -.hp=C)",
		"?.chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
		".dbU.rmStk(.stk=S) -> .ource-.S",
	}
	for _, q := range queries {
		toks, err := Tokens(q)
		if err != nil {
			t.Errorf("lex(%q): %s at %v", q, err.Msg, PosAt(q, err.Off))
		}
		for _, tok := range toks {
			if tok.Kind == ERROR {
				t.Errorf("lex(%q): error token %q", q, tok.Text(q))
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	got := Describe(`?.x="a\"b", Y<-5 @`)
	want := `? . identifier "x" = string "a\"b" , variable "Y" < - integer "5" ERROR`
	if got != want {
		t.Errorf("Describe = %s\nwant       %s", got, want)
	}
}

// TestTokensOneAllocation pins the lexer's allocation: the token slice,
// sized once, and nothing else — the lexer itself stays on the stack.
func TestTokensOneAllocation(t *testing.T) {
	src := "?.euter.r(.stkCode=stk001, .date=1/2/85, .clsPrice=P, .s=\"x y\"), X != 2.5"
	if n := testing.AllocsPerRun(100, func() { Tokens(src) }); n != 1 {
		t.Errorf("Tokens allocates %v times per call, want 1", n)
	}
}
