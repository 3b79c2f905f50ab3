package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/parser"
)

// parentDecode is the request decoder the wire codec replaced, kept as
// its oracle: json.Decoder over the body bounded at limit, unknown
// fields rejected.
func parentDecode(body string, limit int, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), int64(limit)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %v", err)
	}
	return nil
}

// wireSeeds are the bodies FuzzWireCodec starts from, each with the body
// bound it is read under (0: maxBodyBytes).
var wireSeeds = func() []struct {
	body  string
	limit int
} {
	bodies := []string{
		`{"stmt":"?.euter.r(.stkCode=S, .clsPrice>100)"}`,
		`{"id":"p1"}`,
		`{"answer":"S\nstk001\nstk002","rows":2}` + "\n",
		`{"answer":"P\t_\n42","rows":1,"degraded":"degraded: 1/3 member databases unreachable"}`,
		`{"stmt":"<>&"}`, `{"stmt":"\u003c\u003E\u0026"}`,
		"{\"stmt\":\"\xe2\x80\xa8\xe2\x80\xa9\"}", `{"stmt":"\u2028\u2029"}`,
		"{\"stmt\":\"\xff\xfe\xed\xa0\x80\xc0\xaf\"}", "{\"answer\":\"\xff\",\"rows\":0}",
		`{"stmt":"\ud83d\ude00"}`, `{"stmt":"\ud800"}`, `{"stmt":"\udc00\ud800"}`,
		`{"stmt":"\ud800\u0041"}`, `{"stmt":"\ud800\uzzzz"}`, `{"answer":"\ud800x","rows":1}`,
		`{"stmt":"\b\f\n\r\t\/\"\\"}`, `{"stmt":"\'"}`, `{"stmt":"\x"}`,
		`{"STMT":"x"}`, `{"Stmt":"x"}`, "{\"\xc5\xbftmt\":\"x\"}", `{"iD":"p1"}`, `{"ID":"p1","Id":"p2"}`,
		"{\"ANſWER\":\"a\",\"ROWſ\":3}", "{\"\xe2\x84\xaaey\":1}",
		`{"stmt":"a","stmt":"b"}`, `{"stmt":"a","stmt":null}`, `{"stmt":null}`, `{"answer":null,"rows":null}`,
		`null`, `nullx`, `nul`, ` null `, `{}`, ` { } `, `[]`, `"stmt"`, `1`, `true`, ``, `   `,
		`{"stmt":"a"}garbage`, `{"stmt":"a"} {`, `{"stmt":"a"},`, `{"answer":"a","rows":1}x`,
		`{"stmt":"a",}`, `{"stmt":"a" "x":1}`, `{"stmt":1}`, `{"stmt":true}`, `{"x":"a"}`, `{"":"a"}`,
		`{"stmt":"a","x":null}`, `{"rows":1.0}`, `{"rows":1e2}`, `{"rows":-0}`, `{"rows":01}`,
		`{"rows":99999999999999999999}`, `{"rows":-9223372036854775808}`, `{"rows":9223372036854775807}`,
		`{"rows":-9223372036854775809}`, `{"rows":"1"}`, `{"answer":1}`,
		`{"answer":"a","extra":[1,{"x":null,"y":[true,false]}],"more":-1.5e+3,"s":"\u0000"}`,
		`{"x":[1,]}`, `{"x":{"a"}}`, `{"x":-}`, `{"x":.5}`, `{"x":1.}`, `{"x":1e}`,
	}
	for c := range 0x20 {
		bodies = append(bodies, `{"stmt":"a`+string(rune(c))+`b"}`, `{"stmt":"a\u00`+fmt.Sprintf("%02x", c)+`"}`)
	}
	seeds := make([]struct {
		body  string
		limit int
	}, len(bodies))
	for i, b := range bodies {
		seeds[i].body = b
	}
	// Oversize bodies: the object or a top-level null must end within
	// the bound.
	for _, s := range []struct {
		body  string
		limit int
	}{
		{`{"stmt":"` + strings.Repeat("a", 64) + `"}`, 16},
		{`{"stmt":"a"}` + strings.Repeat(" ", 64), 12},
		{`{"stmt":"a"}`, 11},
		{`null`, 4}, {`nullx`, 4}, {`nullx`, 5},
	} {
		seeds = append(seeds, s)
	}
	return seeds
}()

// FuzzWireCodec holds the wire codec to encoding/json: the answer
// encoder writes json.Encoder's bytes, the request decoder returns the
// parent decoder's verdict, value and error text, and the client's
// QueryResponse decode returns json.Unmarshal's verdict and value.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add(s.body, s.limit)
	}
	// A 1 800-row answer body: the client decodes its escaped tabs and
	// newlines between long runs of plain bytes.
	f.Add(string(appendQueryResponse(nil, scanAnswer(f))), 0)
	f.Fuzz(func(t *testing.T, s string, limit int) {
		checkEscape(t, s)
		checkRequest(t, s, limit)
		checkResponse(t, s)
		checkAnswer(t, s)
	})
}

func checkEscape(t *testing.T, s string) {
	want, _ := json.Marshal(s)
	if got := object.AppendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
		t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got[1:], want)
	}
	for _, c := range []struct {
		key string
		v   any
	}{{"stmt", StatementRequest{Stmt: s}}, {"id", PreparedRequest{ID: s}}} {
		want, _ := json.Marshal(c.v)
		got := requestBody(c.key, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("request body %s, json.Marshal writes %s", got, want)
		}
		// The server's hand decoder takes every body the client writes.
		var dec string
		json.Unmarshal(want[len(c.key)+4:len(want)-1], &dec)
		if v, ok := decodeField(got, c.key); !ok || v != dec {
			t.Fatalf("decodeField(%s) = %q, %v; want %q", got, v, ok, dec)
		}
	}
}

func checkRequest(t *testing.T, s string, limit int) {
	if limit <= 0 || limit > maxBodyBytes {
		limit = maxBodyBytes
	}
	for _, key := range []string{"stmt", "id"} {
		var want string
		var werr error
		if key == "stmt" {
			var req StatementRequest
			werr = parentDecode(s, limit, &req)
			want = req.Stmt
		} else {
			var req PreparedRequest
			werr = parentDecode(s, limit, &req)
			want = req.ID
		}
		// The hand decoder takes only what json.Decoder takes, and
		// decodes it to the same value, whatever the bound cut off.
		body, _ := readBody(nil, strings.NewReader(s), int64(len(s)), limit)
		body = slices.Grow(body, len(body))
		if got, ok := decodeField(body, key); ok && (werr != nil || got != want) {
			t.Fatalf("decodeField(%q, limit %d, %s) = %q; json.Decoder: %q, %v", s, limit, key, got, want, werr)
		}
		if string(body) != s[:len(body)] {
			t.Fatalf("decodeField wrote into the body it decoded: %q", body)
		}
		if limit != maxBodyBytes {
			continue
		}
		// The handler's whole path: verdict, value and error text as
		// before.
		got, err := decode(httptest.NewRequest("POST", "/v1/query", strings.NewReader(s)), key)
		if fmt.Sprint(err) != fmt.Sprint(werr) || werr == nil && got != want {
			t.Fatalf("decode(%q, %s) = %q, %v; parent: %q, %v", s, key, got, err, want, werr)
		}
	}
}

func checkResponse(t *testing.T, s string) {
	var want, got, fast QueryResponse
	werr := json.Unmarshal([]byte(s), &want)
	if decodeQueryResponse(append(make([]byte, 0, 2*len(s)), s...), &fast) && (werr != nil || fast != want) {
		t.Fatalf("decodeQueryResponse(%q) = %+v; json.Unmarshal: %+v, %v", s, fast, want, werr)
	}
	err := readQueryResponse(strings.NewReader(s), int64(len(s)), &got)
	if (err == nil) != (werr == nil) || err == nil && got != want {
		t.Fatalf("readQueryResponse(%q) = %+v, %v; json.Unmarshal: %+v, %v", s, got, err, want, werr)
	}
}

// checkAnswer renders an answer holding s as a string atom and inside an
// aggregate, with a degraded report naming it, and compares the body
// with json.Encoder's encoding of the QueryResponse built from String.
func checkAnswer(t *testing.T, s string) {
	e := core.NewEngine()
	e.Base().Put("t", object.TupleOf("r", object.SetOf(
		object.TupleOf("x", s, "y", object.SetOf(s, 2)),
		object.TupleOf("x", "b", "y", 2.5),
	)))
	e.Invalidate()
	q, err := parser.ParseQuery("?.t.r(.x=X, .y=Y)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	ans.Degraded = &federation.Report{Sources: []federation.SourceHealth{{Name: "m", Err: s}}, Skipped: []string{s}}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(QueryResponse{Answer: ans.String(), Rows: ans.Len(), Degraded: ans.Degraded.String()})
	got := appendQueryResponse(nil, ans)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("answer body for %q:\n got %s\nwant %s", s, got, want.Bytes())
	}
	// The client's hand decoder takes every body the server writes.
	var resp, wantResp QueryResponse
	json.Unmarshal(want.Bytes(), &wantResp)
	if !decodeQueryResponse(slices.Grow(got, len(got)), &resp) || resp != wantResp {
		t.Fatalf("decodeQueryResponse(%s) = %+v, want %+v", got, resp, wantResp)
	}
	if got := string(ans.AppendText([]byte("x"))); got != "x"+ans.String() {
		t.Fatalf("AppendText %q, String %q", got, ans.String())
	}
}

// scanAnswer is an answer the size of served.scan's largest: one row per
// (stock, day) of a 30-stock × 60-day euter.r.
func scanAnswer(t testing.TB) *core.Answer {
	rel := object.NewSet()
	for s := range 30 {
		for d := range 60 {
			rel.Add(object.TupleOf("stkCode", fmt.Sprintf("stk%03d", s+1), "date", object.NewDate(85, 1+d/28, 1+d%28), "clsPrice", 50+(s*7+d*3)%90))
		}
	}
	e := core.NewEngine()
	e.Base().Put("euter", object.TupleOf("r", rel))
	e.Invalidate()
	q, err := parser.ParseQuery("?.euter.r(.date=D, .stkCode=S, .clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(q)
	if err != nil || ans.Len() != 1800 {
		t.Fatalf("scan answer: %v rows, %v", ans.Len(), err)
	}
	return ans
}

// TestWireCodecAllocs pins the statement path's allocations: a query
// response builds into a warm pooled buffer with none, and the client
// reads and decodes one with at most two (the answer string and the
// scratch it decodes through; a warm pool leaves only the string).
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ans := scanAnswer(t)
	buf := appendQueryResponse(nil, ans)
	body := slices.Clone(buf)
	n := testing.AllocsPerRun(50, func() { buf = appendQueryResponse(buf[:0], ans) })
	t.Logf("building a %d-byte query response: %.1f allocs", len(buf), n)
	if n != 0 {
		t.Errorf("building a query response allocated, want 0 allocs")
	}
	rd := bytes.NewReader(body)
	var out QueryResponse
	n = testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		if err := readQueryResponse(rd, int64(len(body)), &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("reading and decoding it: %.1f allocs", n)
	if n > 2 {
		t.Errorf("reading a query response: %.1f allocs, want ≤ 2", n)
	}
	if out.Answer != ans.String() || out.Rows != 1800 {
		t.Errorf("decoded %d rows, answer equal %v", out.Rows, out.Answer == ans.String())
	}
}
