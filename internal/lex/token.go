// Package lex tokenizes IDL surface syntax.
package lex

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies a token type.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	ERROR

	// Punctuation.
	DOT      // .
	COMMA    // ,
	LPAREN   // (
	RPAREN   // )
	QUESTION // ?
	SEMI     // ;
	PLUS     // +
	MINUS    // -
	STAR     // *
	NOT      // ~  !  ¬
	LARROW   // <-  ←
	RARROW   // ->  →

	// Relational operators.
	EQ // =
	NE // != ≠
	LT // <
	LE // <= ≤
	GT // >
	GE // >= ≥

	// Literals and names.
	IDENT  // lowercase-initial word: a constant name (string atom)
	VAR    // uppercase-initial word: a logical variable
	INT    // integer literal
	FLOAT  // float literal
	DATE   // m/d/y literal
	STRING // "quoted string"
)

var kindNames = map[Kind]string{
	EOF: "EOF", ERROR: "ERROR", DOT: ".", COMMA: ",", LPAREN: "(",
	RPAREN: ")", QUESTION: "?", SEMI: ";", PLUS: "+", MINUS: "-",
	STAR: "*", NOT: "~", LARROW: "<-", RARROW: "->", EQ: "=", NE: "!=",
	LT: "<", LE: "<=", GT: ">", GE: ">=", IDENT: "identifier",
	VAR: "variable", INT: "integer", FLOAT: "float", DATE: "date",
	STRING: "string",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// PosAt returns the position of byte offset off in src. Columns count
// runes, an invalid UTF-8 byte as one, and a newline starts the next
// line at column 1. Only error reporting needs a position, so tokens
// carry offsets and pay for this walk only when one is reported.
func PosAt(src string, off int) Pos {
	off = min(max(off, 0), len(src))
	p := Pos{Line: 1, Col: 1}
	for _, r := range src[:off] {
		if r == '\n' {
			p.Line++
			p.Col = 1
		} else {
			p.Col++
		}
	}
	return p
}

// Token is one lexical token: its kind and its byte span [Off, End) in
// the source it was lexed from. It holds no pointer, so a token slice is
// one allocation the collector never scans; the accessors read a
// token's text and literal payload back from the source.
type Token struct {
	Kind     Kind
	Off, End int32
}

// Text returns the token's source text; a STRING's is its unquoted
// value. The lexer has validated every STRING, so unquoting cannot fail
// here, and a string without escapes comes back as a substring of src.
func (t Token) Text(src string) string {
	s := src[t.Off:t.End]
	if t.Kind == STRING {
		s, _ = strconv.Unquote(s)
	}
	return s
}

// Int returns an INT token's value (validated by the lexer).
func (t Token) Int(src string) int64 {
	n, _ := strconv.ParseInt(src[t.Off:t.End], 10, 64)
	return n
}

// Float returns a FLOAT token's value (validated by the lexer).
func (t Token) Float(src string) float64 {
	f, _ := strconv.ParseFloat(src[t.Off:t.End], 64)
	return f
}

// Date returns a DATE token's fields as written, m/d/y (validated by
// the lexer).
func (t Token) Date(src string) (year, month, day int) {
	_, _, _, month, day, year = splitDate(src[t.Off:t.End])
	return year, month, day
}

// splitDate splits a lexed `m/d/y` literal into its digit runs and
// their values. An out-of-range run reads as strconv.Atoi leaves it.
func splitDate(s string) (first, second, third string, m, d, y int) {
	i := strings.IndexByte(s, '/')
	j := i + 1 + strings.IndexByte(s[i+1:], '/')
	first, second, third = s[:i], s[i+1:j], s[j+1:]
	m, _ = strconv.Atoi(first)
	d, _ = strconv.Atoi(second)
	y, _ = strconv.Atoi(third)
	return first, second, third, m, d, y
}

// Describe renders the token for error messages: its kind, and for a
// name or literal its text.
func (t Token) Describe(src string) string {
	switch t.Kind {
	case IDENT, VAR, INT, FLOAT, DATE, STRING:
		return fmt.Sprintf("%s %q", t.Kind, t.Text(src))
	default:
		return t.Kind.String()
	}
}

// Error is the first lexical error of an input: its message and the
// byte offset of the token it was found in.
type Error struct {
	Msg string
	Off int
}
