package parser

import (
	"testing"

	"idl/internal/ast"
	"idl/internal/lex"
)

const benchQuery = "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P), .chwab.r(.date=D,.S=P2), P2 = P+10"

// benchPoint is the point lookup the benchmark's embedded.point workload
// sends: the statement the front end's budget is set by.
const benchPoint = "?.euter.r(.stkCode=stk001, .date=1/2/85, .clsPrice=P)"

const benchRule = ".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date"

func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		toks, err := lex.Tokens(benchQuery)
		if err != nil || toks[len(toks)-1].Kind != lex.EOF {
			b.Fatal("bad lex")
		}
	}
}

func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParsePoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(benchPoint); err != nil {
			b.Fatal(err)
		}
	}
}

// The three front ends of a point read, each with the statement's
// rendering (its event and journal text): the parse every read made
// before the shape table (tree, fingerprint walk, String), and the
// table's hit and miss. A miss's extra cost over the old front end is
// BenchmarkShapeMiss minus BenchmarkParsePointRead.

// fpSink keeps the fingerprint walk's result alive.
var fpSink uint64

func BenchmarkParsePointRead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := ParseQuery(benchPoint)
		if err != nil {
			b.Fatal(err)
		}
		fpSink, _ = ast.FingerprintLits(q, nil)
		if q.String() != benchPoint {
			b.Fatal("bad render")
		}
	}
}

func BenchmarkShapeHit(b *testing.B) {
	var tab Shapes
	if _, err := tab.Parse(benchPoint); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tab.Parse(benchPoint)
		if err != nil || st.String() != benchPoint {
			b.Fatal("bad hit")
		}
	}
	if tab.Misses() != 1 {
		b.Fatalf("%d misses", tab.Misses())
	}
}

func BenchmarkShapeMiss(b *testing.B) {
	var tab Shapes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := tab.Parse(benchPoint)
		if err != nil || st.String() != benchPoint {
			b.Fatal("bad miss")
		}
		x, y := tab.slotsFor(st.Shape.hash) // forget the shape: the next read misses
		x.Store(nil)
		y.Store(nil)
	}
	if tab.Misses() != uint64(b.N) {
		b.Fatalf("%d misses in %d reads", tab.Misses(), b.N)
	}
}

func BenchmarkParseRule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRule(benchRule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrintRoundTrip(b *testing.B) {
	q, err := ParseQuery(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(q.String()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrintPoint(b *testing.B) {
	q, err := ParseQuery(benchPoint)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.String() != benchPoint {
			b.Fatal("point statement does not render as written")
		}
	}
}

// TestParseBudget pins the front end's allocation on the point
// statement: lexing is the token slice alone, and a whole ParseQuery
// stays within 1.5 KB (it was 4 KB when tokens carried their text and
// position).
func TestParseBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	lexing := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lex.Tokens(benchPoint)
		}
	})
	if n := lexing.AllocsPerOp(); n != 1 {
		t.Errorf("lexing the point statement: %d allocs/op, want 1", n)
	}
	parse := testing.Benchmark(BenchmarkParsePoint)
	if n := parse.AllocedBytesPerOp(); n > 1536 {
		t.Errorf("parsing the point statement: %d B/op, want at most 1536", n)
	}
	t.Logf("lex %d B/op, %d allocs/op; parse %d B/op, %d allocs/op",
		lexing.AllocedBytesPerOp(), lexing.AllocsPerOp(), parse.AllocedBytesPerOp(), parse.AllocsPerOp())
}
