package parser

import (
	"strconv"
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

// FuzzLex checks the lexer terminates and never panics, and that the
// token spans tile the input in order: in bounds, increasing and
// non-overlapping, every position at or after 1:1, and every STRING's
// text the unquoted value of its span. The first error, if any, is the
// first ERROR token's.
func FuzzLex(f *testing.F) {
	f.Add("?.x.y(.a=1)")
	f.Add("3/3/85 2.5e10 \"str\" <- -> ≠ ≤ ≥ ¬")
	f.Add("\x00\xff\xfe")
	f.Add("?.é.ü(@\n.a=\"b\\\"c\" 13/1/85 \"open")
	f.Fuzz(func(t *testing.T, src string) {
		toks, lerr := lex.Tokens(src)
		if len(toks) == 0 || toks[len(toks)-1].Kind != lex.EOF {
			t.Fatal("token stream must end with EOF")
		}
		prev := 0
		firstErr := -1
		for i, tok := range toks {
			off, end := int(tok.Off), int(tok.End)
			if off < prev || end < off || end > len(src) {
				t.Fatalf("token %d span [%d,%d) after %d in %d bytes", i, off, end, prev, len(src))
			}
			if tok.Kind != lex.EOF && end == off {
				t.Fatalf("token %d (%v) is empty", i, tok.Kind)
			}
			prev = end
			if p := lex.PosAt(src, off); p.Line < 1 || p.Col < 1 {
				t.Fatalf("bad position %v for token %d", p, i)
			}
			if tok.Kind == lex.STRING {
				want, err := strconv.Unquote(src[off:end])
				if err != nil || tok.Text(src) != want {
					t.Fatalf("STRING %q: text %q, unquoted %q (%v)", src[off:end], tok.Text(src), want, err)
				}
			}
			if tok.Kind == lex.ERROR && firstErr < 0 {
				firstErr = off
			}
		}
		switch {
		case firstErr < 0 && lerr != nil:
			t.Fatalf("error %q without an ERROR token", lerr.Msg)
		case firstErr >= 0 && (lerr == nil || lerr.Off != firstErr):
			t.Fatalf("first ERROR token at %d, error %+v", firstErr, lerr)
		}
	})
}
