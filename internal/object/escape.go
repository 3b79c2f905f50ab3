package object

import (
	"slices"
	"unicode/utf8"
)

// JSON string escaping, byte for byte as encoding/json escapes a string
// with its default HTML escaping: `"` and `\` are backslashed; \b \f \n
// \r \t keep their short escapes; every other byte below 0x20 and the
// HTML-sensitive < > & become \u00XX (lower-case hex); U+2028 and U+2029
// become \u2028 and \u2029; each byte of invalid UTF-8 becomes \ufffd.
// The wire codec (internal/server) renders answers with it, so a served
// body is exactly what json.Encoder would write.

// jsonASCII is the escape of each ASCII byte, "" where the byte stands
// for itself.
var jsonASCII = func() (t [utf8.RuneSelf]string) {
	const hex = "0123456789abcdef"
	for b := range t {
		switch c := byte(b); c {
		case '"', '\\':
			t[b] = `\` + string(c)
		case '\b':
			t[b] = `\b`
		case '\f':
			t[b] = `\f`
		case '\n':
			t[b] = `\n`
		case '\r':
			t[b] = `\r`
		case '\t':
			t[b] = `\t`
		case '<', '>', '&':
			t[b] = `\u00` + string(hex[c>>4]) + string(hex[c&0xF])
		default:
			if c < 0x20 {
				t[b] = `\u00` + string(hex[c>>4]) + string(hex[c&0xF])
			}
		}
	}
	return t
}()

// jsonUnit reads the character at the start of s: its escape ("" when it
// is copied as is) and how many bytes it spans.
func jsonUnit(s []byte) (string, int) {
	if c := s[0]; c < utf8.RuneSelf {
		return jsonASCII[c], 1
	}
	r, n := utf8.DecodeRune(s)
	switch {
	case r == utf8.RuneError && n == 1:
		return `\ufffd`, 1
	case r == '\u2028':
		return `\u2028`, n
	case r == '\u2029':
		return `\u2029`, n
	}
	return "", n
}

// EscapeJSON rewrites dst[from:] in place as the inside of a JSON string
// literal. Text that needs no escape — the common case — costs one scan;
// otherwise dst grows by exactly the escapes' extra bytes, the tail moves
// to the end of the grown slice and is escaped forward over itself (the
// write position never passes the read position).
func EscapeJSON(dst []byte, from int) []byte {
	grow := 0
	for i := from; i < len(dst); {
		esc, n := jsonUnit(dst[i:])
		if esc != "" {
			grow += len(esc) - n
		}
		i += n
	}
	if grow == 0 {
		return dst
	}
	end := len(dst) + grow
	dst = slices.Grow(dst, grow)[:end]
	copy(dst[from+grow:], dst[from:end-grow])
	w := from
	for r := from + grow; r < end; {
		esc, n := jsonUnit(dst[r:end])
		if esc == "" {
			w += copy(dst[w:], dst[r:r+n])
		} else {
			w += copy(dst[w:], esc)
		}
		r += n
	}
	return dst
}

// AppendJSONString appends s as a quoted JSON string.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := len(dst)
	dst = EscapeJSON(append(dst, s...), from)
	return append(dst, '"')
}

// AppendJSON appends AppendString's rendering of o, escaped for the
// inside of a JSON string. Numbers, dates, booleans and bareword strings
// render in characters JSON never escapes, so only quoted strings and
// aggregates are scanned.
func AppendJSON(dst []byte, o Object) []byte {
	switch v := o.(type) {
	case Int, Date, Float, Bool:
		return AppendString(dst, o)
	case Str:
		if isBareword(string(v)) {
			return append(dst, v...)
		}
	}
	from := len(dst)
	return EscapeJSON(AppendString(dst, o), from)
}
