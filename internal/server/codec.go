package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"idl"
	"idl/internal/object"
)

// The statement path's codec. A query answer is rendered once, straight
// into a pooled buffer as the response body, and the two request bodies
// and the client's QueryResponse are decoded by hand in one pass. The
// bytes it writes are the bytes encoding/json writes. The hand decoders
// take the bodies the codec itself writes; any other body (a case-folded
// or unknown key, a surrogate escape, malformed JSON) goes to
// encoding/json, which gives the verdict, the value and the error text.
// FuzzWireCodec holds all of it to encoding/json.

// bufPool holds body buffers: a response is built in one and written
// with one Write, a request body is read into one.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf bounds the buffers bufPool keeps, so one huge answer does
// not pin its buffer.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*p = b[:0]
		bufPool.Put(p)
	}
}

// answerBody is a query answer on its way to the wire: writeJSON renders
// it straight into the response buffer.
type answerBody struct{ ans *idl.Result }

// appendQueryResponse appends the QueryResponse for ans, followed by the
// newline json.Encoder ends a value with.
func appendQueryResponse(dst []byte, ans *idl.Result) []byte {
	dst = append(dst, `{"answer":"`...)
	dst = ans.AppendJSON(dst)
	dst = append(dst, `","rows":`...)
	dst = strconv.AppendInt(dst, int64(ans.Len()), 10)
	if ans.Degraded != nil {
		if d := ans.Degraded.String(); d != "" {
			dst = append(dst, `,"degraded":`...)
			dst = object.AppendJSONString(dst, d)
		}
	}
	return append(dst, "}\n"...)
}

// writeJSON writes one response with an exact Content-Length: a query
// answer rendered by appendQueryResponse, anything else encoded by
// encoding/json, both into a pooled buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	p := getBuf()
	b := (*p)[:0]
	if a, ok := v.(answerBody); ok {
		b = appendQueryResponse(b, a.ans)
	} else {
		buf := bytes.NewBuffer(b)
		json.NewEncoder(buf).Encode(v)
		b = buf.Bytes()
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
	putBuf(p, b)
}

// requestBody is a one-field request body, {"stmt":…} or {"id":…}, as
// json.Marshal writes StatementRequest and PreparedRequest. Its capacity
// leaves room for a few escapes.
func requestBody(key, val string) []byte {
	dst := make([]byte, 0, len(key)+len(val)+24)
	dst = append(append(append(dst, `{"`...), key...), `":`...)
	return append(object.AppendJSONString(dst, val), '}')
}

// decode reads a StatementRequest (key "stmt") or PreparedRequest (key
// "id") body, bounded at maxBodyBytes, and returns its field.
func decode(r *http.Request, key string) (string, error) {
	p := getBuf()
	body, end := readBody((*p)[:0], r.Body, r.ContentLength, maxBodyBytes)
	body = slices.Grow(body, len(body)) // room for the decoded string
	val, ok := decodeField(body, key)
	var err error
	if !ok {
		val, err = decodeJSON(body, end, key)
	}
	putBuf(p, body)
	if err != nil {
		return "", fmt.Errorf("server: bad request body: %v", err)
	}
	return val, nil
}

// readBody appends r's bytes to dst, at most limit of them. end is what
// a read past them said: nil for the end of the body, an
// *http.MaxBytesError when there was more than limit, or the read's
// error.
func readBody(dst []byte, r io.Reader, size int64, limit int) ([]byte, error) {
	if size > 0 && size <= int64(limit) {
		dst = slices.Grow(dst, int(size)+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), limit+1)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst) > limit:
			return dst[:limit], &http.MaxBytesError{Limit: int64(limit)}
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

// decodeField is the request decoder for the bodies requestBody writes:
// a {"<key>":"…"} object, white space allowed, whose string holds no
// surrogate escape. Anything else is left to decodeJSON. json.Decoder
// takes an object that ends within body whatever follows it, so the
// bytes past it and the end of the read do not matter.
func decodeField(body []byte, key string) (string, bool) {
	s := scanner{b: body, out: body[len(body):]}
	s.ws()
	if !s.next('{') {
		return "", false
	}
	s.ws()
	if k, ok := s.str(); !ok || string(k) != key {
		return "", false
	}
	if s.ws(); !s.next(':') {
		return "", false
	}
	s.ws()
	v, ok := s.str()
	if !ok {
		return "", false
	}
	if s.ws(); !s.next('}') {
		return "", false
	}
	return string(v), true
}

// decodeJSON is the former request decoder: json.Decoder over the same
// bytes and the same end of the read, unknown fields rejected.
func decodeJSON(body []byte, end error, key string) (string, error) {
	var rd io.Reader = bytes.NewReader(body)
	if end != nil {
		rd = io.MultiReader(rd, errReader{end})
	}
	dec := json.NewDecoder(rd)
	// Reject unknown fields: a misspelled field name silently decoding
	// to a zero value turns a client typo into a confusing downstream
	// error (an empty statement "parses" before it fails).
	dec.DisallowUnknownFields()
	if key == "stmt" {
		var req StatementRequest
		err := dec.Decode(&req)
		return req.Stmt, err
	}
	var req PreparedRequest
	err := dec.Decode(&req)
	return req.ID, err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readQueryResponse reads a QueryResponse body of size bytes (-1:
// unknown, read to the end) into a pooled scratch and decodes it, by
// decodeQueryResponse or, for a body it does not take, json.Unmarshal.
func readQueryResponse(r io.Reader, size int64, out *QueryResponse) error {
	p := getBuf()
	b := (*p)[:0]
	var err error
	if size >= 0 {
		b = slices.Grow(b, int(size))[:size]
		_, err = io.ReadFull(r, b)
	} else {
		b, err = io.ReadAll(r)
	}
	if err == nil {
		b = slices.Grow(b, len(b)) // room for the decoded answer
		if !decodeQueryResponse(b, out) {
			err = json.Unmarshal(b, out)
		}
	}
	putBuf(p, b)
	return err
}

// decodeQueryResponse is the client's decoder for the bodies
// appendQueryResponse writes: an object of "answer", "rows" and
// "degraded" in any order, each at most once, answer and degraded
// strings and rows an integer, and only white space after it. It sets
// out only when it takes the body. The spare capacity of b is the
// scratch strings decode into.
func decodeQueryResponse(b []byte, out *QueryResponse) bool {
	s := scanner{b: b, out: b[len(b):]}
	var r QueryResponse
	var seen [3]bool
	s.ws()
	if !s.next('{') {
		return false
	}
	for n := 0; ; n++ {
		if s.ws(); s.next('}') {
			break
		}
		if n > 0 && !s.next(',') {
			return false
		}
		s.ws()
		k, ok := s.str()
		if !ok {
			return false
		}
		if s.ws(); !s.next(':') {
			return false
		}
		s.ws()
		var f int
		switch string(k) {
		case "answer":
			var v []byte
			v, ok = s.str()
			r.Answer = string(v)
		case "rows":
			r.Rows, ok = s.int()
			f = 1
		case "degraded":
			var v []byte
			v, ok = s.str()
			r.Degraded = string(v)
			f = 2
		default:
			return false
		}
		if !ok || seen[f] {
			return false
		}
		seen[f] = true
	}
	if s.ws(); s.p != len(s.b) {
		return false
	}
	*out = r
	return true
}

// scanner is a cursor over a JSON text. out is the scratch a string with
// escapes decodes into; b is never written.
type scanner struct {
	b   []byte
	p   int
	out []byte
}

func (s *scanner) ws() {
	for s.p < len(s.b) {
		switch s.b[s.p] {
		case ' ', '\t', '\n', '\r':
			s.p++
		default:
			return
		}
	}
}

// next consumes c when it is the next byte.
func (s *scanner) next(c byte) bool {
	if s.p < len(s.b) && s.b[s.p] == c {
		s.p++
		return true
	}
	return false
}

// str decodes the string that starts at the cursor, as encoding/json
// unquotes it, and fails on a surrogate escape or a byte of invalid
// UTF-8, which encoding/json replaces. Plain ASCII text is returned as
// it stands in b; anything else decodes into s.out, valid until the next
// call, each run of plain bytes appended in one copy.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	b, start := s.b, s.p
	r := plain(b, start)
	if r < len(b) && b[r] == '"' {
		s.p = r + 1
		return b[start:r], true
	}
	out := append(s.out[:0], b[start:r]...)
	for r < len(b) {
		switch c := b[r]; {
		case c == '"':
			s.p, s.out = r+1, out
			return out, true
		case c == '\\':
			if r+1 == len(b) {
				return nil, false
			}
			switch e := b[r+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(b[r+2:])
				if rr < 0 || utf16.IsSurrogate(rr) {
					return nil, false
				}
				out = utf8.AppendRune(out, rr)
				r += 4
			default:
				return nil, false
			}
			r += 2
		case c < ' ':
			return nil, false
		default:
			rr, n := utf8.DecodeRune(b[r:])
			if rr == utf8.RuneError && n == 1 {
				return nil, false
			}
			out = append(out, b[r:r+n]...)
			r += n
		}
		from := r
		r = plain(b, r)
		out = append(out, b[from:r]...)
	}
	return nil, false
}

// plain returns the end of the run of plain bytes from r: printable
// ASCII other than a quote or a backslash, which a string holds as is.
func plain(b []byte, r int) int {
	for r < len(b) && b[r] != '"' && b[r] != '\\' && ' ' <= b[r] && b[r] < utf8.RuneSelf {
		r++
	}
	return r
}

// hex4 reads the four hex digits of a u-escape, -1 when there are none.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// int consumes a JSON integer that fits an int: an optional minus and
// digits without a leading zero. A fraction or an exponent is left
// unread, so the caller fails on the byte after.
func (s *scanner) int() (int, bool) {
	neg := s.next('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	j := s.p
	for ; j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9'; j++ {
		d := uint64(s.b[j] - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if j == s.p || s.b[s.p] == '0' && j > s.p+1 {
		return 0, false
	}
	s.p = j
	if neg {
		return int(-n), true
	}
	return int(n), true
}
