package parser

import (
	"testing"

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
