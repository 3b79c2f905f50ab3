package lex

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenizes an IDL source string. Errors are reported as ERROR
// tokens carrying the message; the lexer recovers by skipping the
// offending rune so parsing can continue to find more errors.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokens lexes the entire input, returning every token up to and
// including EOF. The slice is sized once from the input, for three
// tokens per four bytes: the densest statements of the example scripts
// run to 0.7 (`?.chwab.r(.date=D, .hp=P)`), so growing it is rare.
func Tokens(src string) []Token {
	lx := New(src)
	out := make([]Token, 0, len(src)*3/4+2)
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == EOF {
			return out
		}
	}
}

func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *Lexer) peekAt(byteAhead int) rune {
	if l.off+byteAhead >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+byteAhead:])
	return r
}

func (l *Lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%': // Prolog-style line comment
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '/': // C-style line comment
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) tok(k Kind, text string, p Pos) Token {
	return Token{Kind: k, Text: text, Pos: p}
}

func (l *Lexer) errorf(p Pos, format string, args ...any) Token {
	return Token{Kind: ERROR, Text: fmt.Sprintf(format, args...), Pos: p}
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	p := l.pos()
	if l.off >= len(l.src) {
		return l.tok(EOF, "", p)
	}
	r := l.peek()
	switch {
	case r == '.':
		// Disambiguate the path dot from a leading-dot float (.5): IDL
		// paths always follow '.' with a letter, '_' or a variable, so a
		// digit after '.' is a float.
		if d := l.peekAt(1); d >= '0' && d <= '9' {
			return l.lexNumber(p)
		}
		l.advance()
		return l.tok(DOT, ".", p)
	case r == ',':
		l.advance()
		return l.tok(COMMA, ",", p)
	case r == '(':
		l.advance()
		return l.tok(LPAREN, "(", p)
	case r == ')':
		l.advance()
		return l.tok(RPAREN, ")", p)
	case r == '?':
		l.advance()
		return l.tok(QUESTION, "?", p)
	case r == ';':
		l.advance()
		return l.tok(SEMI, ";", p)
	case r == '+':
		l.advance()
		return l.tok(PLUS, "+", p)
	case r == '*':
		l.advance()
		return l.tok(STAR, "*", p)
	case r == '~' || r == '¬':
		l.advance()
		return l.tok(NOT, "~", p)
	case r == '←':
		l.advance()
		return l.tok(LARROW, "<-", p)
	case r == '→':
		l.advance()
		return l.tok(RARROW, "->", p)
	case r == '-':
		l.advance()
		if l.peek() == '>' {
			l.advance()
			return l.tok(RARROW, "->", p)
		}
		return l.tok(MINUS, "-", p)
	case r == '=':
		l.advance()
		return l.tok(EQ, "=", p)
	case r == '≠':
		l.advance()
		return l.tok(NE, "!=", p)
	case r == '≤':
		l.advance()
		return l.tok(LE, "<=", p)
	case r == '≥':
		l.advance()
		return l.tok(GE, ">=", p)
	case r == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return l.tok(NE, "!=", p)
		}
		return l.tok(NOT, "~", p)
	case r == '<':
		l.advance()
		switch l.peek() {
		case '=':
			l.advance()
			return l.tok(LE, "<=", p)
		case '-':
			// `<-` is the rule arrow unless it reads as a comparison with
			// a negative number (`<-5` ⇒ `< -5`).
			if d := l.peekAt(1); d >= '0' && d <= '9' {
				return l.tok(LT, "<", p)
			}
			l.advance()
			return l.tok(LARROW, "<-", p)
		}
		return l.tok(LT, "<", p)
	case r == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return l.tok(GE, ">=", p)
		}
		return l.tok(GT, ">", p)
	case r == '"':
		return l.lexString(p)
	case r >= '0' && r <= '9':
		return l.lexNumber(p)
	case r == '_' || unicode.IsLetter(r):
		return l.lexWord(p)
	default:
		l.advance()
		return l.errorf(p, "unexpected character %q", r)
	}
}

func (l *Lexer) lexWord(p Pos) Token {
	start := l.off
	for l.off < len(l.src) {
		r := l.peek()
		if r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) {
			l.advance()
			continue
		}
		break
	}
	text := l.src[start:l.off]
	first, _ := utf8.DecodeRuneInString(text)
	if unicode.IsUpper(first) {
		return Token{Kind: VAR, Text: text, Pos: p}
	}
	return Token{Kind: IDENT, Text: text, Pos: p}
}

func (l *Lexer) lexString(p Pos) Token {
	start := l.off
	l.advance() // opening quote
	for l.off < len(l.src) {
		r := l.peek()
		if r == '\\' {
			l.advance()
			if l.off < len(l.src) {
				l.advance()
			}
			continue
		}
		if r == '"' {
			l.advance()
			raw := l.src[start:l.off]
			text, err := strconv.Unquote(raw)
			if err != nil {
				return l.errorf(p, "bad string literal %s", raw)
			}
			return Token{Kind: STRING, Text: text, Pos: p}
		}
		if r == '\n' {
			break
		}
		l.advance()
	}
	return l.errorf(p, "unterminated string literal")
}

// lexNumber scans an INT, FLOAT, or DATE (m/d/y with no spaces) literal.
func (l *Lexer) lexNumber(p Pos) Token {
	start := l.off
	digits := func() {
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
	}
	digits()
	// DATE: int '/' int '/' int, written the paper's way (3/3/85).
	if l.peek() == '/' && isDigit(l.peekAt(1)) {
		first := l.src[start:l.off]
		l.advance() // first slash
		secondStart := l.off
		digits()
		second := l.src[secondStart:l.off]
		if l.peek() != '/' || !isDigit(l.peekAt(1)) {
			return l.errorf(p, "malformed date literal starting %q", l.src[start:l.off])
		}
		l.advance() // second slash
		thirdStart := l.off
		digits()
		third := l.src[thirdStart:l.off]
		m, _ := strconv.Atoi(first)
		d, _ := strconv.Atoi(second)
		y, _ := strconv.Atoi(third)
		if m < 1 || m > 12 || d < 1 || d > 31 {
			return l.errorf(p, "date %s/%s/%s out of range", first, second, third)
		}
		return Token{Kind: DATE, Text: l.src[start:l.off], Pos: p, Year: y, Month: m, Day: d}
	}
	isFloat := false
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		isFloat = true
		l.advance()
		digits()
	}
	if r := l.peek(); r == 'e' || r == 'E' {
		// Exponent part; only if followed by digits (or sign+digits).
		save, saveLine, saveCol := l.off, l.line, l.col
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			digits()
		} else {
			l.off, l.line, l.col = save, saveLine, saveCol
		}
	}
	text := l.src[start:l.off]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return l.errorf(p, "bad float literal %q", text)
		}
		return Token{Kind: FLOAT, Text: text, Pos: p, Float: f}
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return l.errorf(p, "bad integer literal %q", text)
	}
	return Token{Kind: INT, Text: text, Pos: p, Int: n}
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// Describe renders a one-line summary of the token stream; used by tests
// and the CLI's -tokens debugging flag.
func Describe(tokens []Token) string {
	parts := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t.Kind == EOF {
			break
		}
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}
