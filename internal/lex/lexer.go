package lex

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer scans one source string. An error becomes an ERROR token
// spanning the offending text, and the first one is also kept, with its
// message, for Tokens to return; scanning resumes after it so the token
// stream stays complete.
type lexer struct {
	src string
	off int // byte offset of the next unread byte
	err *Error
}

// Tokens lexes the entire input, returning every token up to and
// including EOF, and the first lexical error (nil when there is none).
// The slice is sized once from the input, for three tokens per four
// bytes: the densest statements of the example scripts run to 0.7
// (`?.chwab.r(.date=D, .hp=P)`), so growing it is rare.
func Tokens(src string) ([]Token, *Error) {
	if len(src) > math.MaxInt32 {
		return []Token{{Kind: EOF}}, &Error{Msg: fmt.Sprintf("input of %d bytes is too large", len(src))}
	}
	l := lexer{src: src}
	out := make([]Token, 0, len(src)*3/4+2)
	for {
		t := l.next()
		out = append(out, t)
		if t.Kind == EOF {
			return out, l.err
		}
	}
}

// byteAt returns the byte at offset i, or 0 past the end.
func (l *lexer) byteAt(i int) byte {
	if i >= len(l.src) {
		return 0
	}
	return l.src[i]
}

// tok makes the token of kind k spanning start up to the read offset.
func (l *lexer) tok(k Kind, start int) Token {
	return Token{Kind: k, Off: int32(start), End: int32(l.off)}
}

func (l *lexer) errorf(start int, format string, args ...any) Token {
	if l.err == nil {
		l.err = &Error{Msg: fmt.Sprintf(format, args...), Off: start}
	}
	return l.tok(ERROR, start)
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == ' ', c == '\t', c == '\n', c == '\r', c == '\v', c == '\f':
			l.off++
		case c == '%', c == '/' && l.byteAt(l.off+1) == '/':
			// Prolog-style `%` or C-style `//` line comment.
			if i := strings.IndexByte(l.src[l.off:], '\n'); i >= 0 {
				l.off += i
			} else {
				l.off = len(l.src)
			}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if !unicode.IsSpace(r) {
				return
			}
			l.off += size
		default:
			return
		}
	}
}

// next returns the next token. ASCII, nearly all of any statement, is
// dispatched on its byte; a byte of 0x80 or above is decoded as a rune.
func (l *lexer) next() Token {
	l.skipSpaceAndComments()
	start := l.off
	if start >= len(l.src) {
		return l.tok(EOF, start)
	}
	c := l.src[start]
	switch {
	case c >= utf8.RuneSelf:
		return l.nextRune(start)
	case isDigit(c):
		return l.lexNumber(start)
	case c == '_' || isLetter(c):
		return l.lexWord(start)
	case c == '"':
		return l.lexString(start)
	case c == '.' && isDigit(l.byteAt(start+1)):
		// Disambiguate the path dot from a leading-dot float (.5): IDL
		// paths always follow '.' with a letter, '_' or a variable, so a
		// digit after '.' is a float.
		return l.lexNumber(start)
	}
	l.off++
	switch c {
	case '.':
		return l.tok(DOT, start)
	case ',':
		return l.tok(COMMA, start)
	case '(':
		return l.tok(LPAREN, start)
	case ')':
		return l.tok(RPAREN, start)
	case '?':
		return l.tok(QUESTION, start)
	case ';':
		return l.tok(SEMI, start)
	case '+':
		return l.tok(PLUS, start)
	case '*':
		return l.tok(STAR, start)
	case '~':
		return l.tok(NOT, start)
	case '=':
		return l.tok(EQ, start)
	case '-':
		if l.byteAt(l.off) == '>' {
			l.off++
			return l.tok(RARROW, start)
		}
		return l.tok(MINUS, start)
	case '!':
		if l.byteAt(l.off) == '=' {
			l.off++
			return l.tok(NE, start)
		}
		return l.tok(NOT, start)
	case '<':
		switch l.byteAt(l.off) {
		case '=':
			l.off++
			return l.tok(LE, start)
		case '-':
			// `<-` is the rule arrow unless it reads as a comparison with
			// a negative number (`<-5` ⇒ `< -5`).
			if isDigit(l.byteAt(l.off + 1)) {
				return l.tok(LT, start)
			}
			l.off++
			return l.tok(LARROW, start)
		}
		return l.tok(LT, start)
	case '>':
		if l.byteAt(l.off) == '=' {
			l.off++
			return l.tok(GE, start)
		}
		return l.tok(GT, start)
	}
	return l.errorf(start, "unexpected character %q", rune(c))
}

// nextRune lexes a token that starts with a non-ASCII rune: one of the
// paper's operator glyphs or a letter.
func (l *lexer) nextRune(start int) Token {
	r, size := utf8.DecodeRuneInString(l.src[start:])
	if unicode.IsLetter(r) {
		return l.lexWord(start)
	}
	l.off += size
	switch r {
	case '¬':
		return l.tok(NOT, start)
	case '←':
		return l.tok(LARROW, start)
	case '→':
		return l.tok(RARROW, start)
	case '≠':
		return l.tok(NE, start)
	case '≤':
		return l.tok(LE, start)
	case '≥':
		return l.tok(GE, start)
	}
	return l.errorf(start, "unexpected character %q", r)
}

func (l *lexer) lexWord(start int) Token {
	i := start
	for i < len(l.src) {
		if c := l.src[i]; c < utf8.RuneSelf {
			if c == '_' || isLetter(c) || isDigit(c) {
				i++
				continue
			}
			break
		}
		r, size := utf8.DecodeRuneInString(l.src[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		i += size
	}
	l.off = i
	upper := false
	if c := l.src[start]; c < utf8.RuneSelf {
		upper = 'A' <= c && c <= 'Z'
	} else {
		r, _ := utf8.DecodeRuneInString(l.src[start:])
		upper = unicode.IsUpper(r)
	}
	if upper {
		return l.tok(VAR, start)
	}
	return l.tok(IDENT, start)
}

// lexString scans a double-quoted literal and validates it the way
// strconv.Unquote would read it, without building its value. A
// backslash skips the byte after it; no byte of a multi-byte rune is a
// quote, a backslash or a newline, so scanning by byte finds the same
// closing quote as scanning by rune.
func (l *lexer) lexString(start int) Token {
	for i := start + 1; i < len(l.src); i++ {
		switch l.src[i] {
		case '\\':
			i++
		case '"':
			l.off = i + 1
			raw := l.src[start:l.off]
			if q, err := strconv.QuotedPrefix(raw); err != nil || len(q) != len(raw) {
				return l.errorf(start, "bad string literal %s", raw)
			}
			return l.tok(STRING, start)
		case '\n':
			l.off = i
			return l.errorf(start, "unterminated string literal")
		}
	}
	l.off = len(l.src)
	return l.errorf(start, "unterminated string literal")
}

// digits advances past a run of ASCII digits.
func (l *lexer) digits() {
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.off++
	}
}

// lexNumber scans an INT, FLOAT, or DATE (m/d/y with no spaces) literal
// and validates its value; the parser reads the value back through the
// token's accessors.
func (l *lexer) lexNumber(start int) Token {
	l.off = start
	l.digits()
	// DATE: int '/' int '/' int, written the paper's way (3/3/85).
	if l.byteAt(l.off) == '/' && isDigit(l.byteAt(l.off+1)) {
		l.off++ // first slash
		l.digits()
		if l.byteAt(l.off) != '/' || !isDigit(l.byteAt(l.off+1)) {
			return l.errorf(start, "malformed date literal starting %q", l.src[start:l.off])
		}
		l.off++ // second slash
		l.digits()
		first, second, third, m, d, _ := splitDate(l.src[start:l.off])
		if m < 1 || m > 12 || d < 1 || d > 31 {
			return l.errorf(start, "date %s/%s/%s out of range", first, second, third)
		}
		return l.tok(DATE, start)
	}
	isFloat := false
	if l.byteAt(l.off) == '.' && isDigit(l.byteAt(l.off+1)) {
		isFloat = true
		l.off++
		l.digits()
	}
	if c := l.byteAt(l.off); c == 'e' || c == 'E' {
		// Exponent part; only if followed by digits (or sign+digits).
		save := l.off
		l.off++
		if c := l.byteAt(l.off); c == '+' || c == '-' {
			l.off++
		}
		if isDigit(l.byteAt(l.off)) {
			isFloat = true
			l.digits()
		} else {
			l.off = save
		}
	}
	text := l.src[start:l.off]
	if isFloat {
		if _, err := strconv.ParseFloat(text, 64); err != nil {
			return l.errorf(start, "bad float literal %q", text)
		}
		return l.tok(FLOAT, start)
	}
	if _, err := strconv.ParseInt(text, 10, 64); err != nil {
		return l.errorf(start, "bad integer literal %q", text)
	}
	return l.tok(INT, start)
}

func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

// Describe lexes src and renders its token stream on one line; used by
// tests and the CLI's -tokens debugging flag.
func Describe(src string) string {
	tokens, _ := Tokens(src)
	parts := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t.Kind == EOF {
			break
		}
		parts = append(parts, t.Describe(src))
	}
	return strings.Join(parts, " ")
}
