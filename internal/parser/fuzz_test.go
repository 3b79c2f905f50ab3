package parser

import (
	"testing"

	"idl/internal/lex"
)

// FuzzParse checks that arbitrary input never panics the lexer or parser,
// and that anything that parses re-parses from its printed form to a
// stable rendering (print/parse round trip).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"?.euter.r(.stkCode=hp, .clsPrice>60)",
		"?.chwab.r(.S>200)",
		"?.X.Y, X = ource",
		"?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
		"?.chwab.r(.date=3/3/85, .hp-=C)",
		"?.ource-.S",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
		".dbU.rmStk(.stk=S) -> .chwab.r(-.S)",
		"?.a.b(.c=1); ?.d.e(.f=2)",
		"?~.x.y(.z=(1+2)*3)",
		`?.a."quoted attr"(.x="string")`,
		"% comment\n?.x",
		"?.x.y(.a<-5)",
		"?.5 .x ( ) ;;; ~~~",
		"?.é.ü(.ß=1)",
		"?.a.r(~X*2=4, .b=X)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Must never panic.
		stmts, err := ParseProgram(src)
		if err != nil {
			return
		}
		for _, st := range stmts {
			printed := st.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("printed form %q of %q does not re-parse: %v", printed, src, err)
			}
			if again.String() != printed {
				t.Fatalf("unstable round trip: %q -> %q", printed, again.String())
			}
		}
	})
}

// FuzzLex checks the lexer terminates and never panics, and that every
// token carries a sane position.
func FuzzLex(f *testing.F) {
	f.Add("?.x.y(.a=1)")
	f.Add("3/3/85 2.5e10 \"str\" <- -> ≠ ≤ ≥ ¬")
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, src string) {
		toks := lex.Tokens(src)
		if len(toks) == 0 || toks[len(toks)-1].Kind != lex.EOF {
			t.Fatal("token stream must end with EOF")
		}
		for _, tok := range toks {
			if tok.Pos.Line < 1 || tok.Pos.Col < 1 {
				t.Fatalf("bad position %v for %v", tok.Pos, tok)
			}
		}
	})
}
