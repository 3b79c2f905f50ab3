package object

import (
	"fmt"
	"testing"
)

func benchTuple(i int) *Tuple {
	return TupleOf("date", NewDate(85, 1+i%12, 1+i%28), "stkCode", fmt.Sprintf("stk%03d", i%100), "clsPrice", i%500)
}

func BenchmarkTupleHash(b *testing.B) {
	t := benchTuple(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Hash()
	}
}

func BenchmarkTupleEqual(b *testing.B) {
	x, y := benchTuple(7), benchTuple(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("should be equal")
		}
	}
}

func BenchmarkSetAdd(b *testing.B) {
	b.ReportAllocs()
	s := NewSet()
	for i := 0; i < b.N; i++ {
		s.Add(benchTuple(i))
	}
}

func BenchmarkSetContains(b *testing.B) {
	s := NewSet()
	for i := 0; i < 10000; i++ {
		s.Add(benchTuple(i))
	}
	probe := benchTuple(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Contains(probe) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkSetAddRemoveChurn(b *testing.B) {
	s := NewSet()
	for i := 0; i < 1000; i++ {
		s.Add(benchTuple(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := benchTuple(1000 + i)
		s.Add(t)
		s.Remove(t)
	}
}

func BenchmarkTupleGet(b *testing.B) {
	t := benchTuple(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Get("clsPrice"); !ok {
			b.Fatal("missing attr")
		}
	}
}

func BenchmarkCloneDeep(b *testing.B) {
	s := NewSet()
	for i := 0; i < 100; i++ {
		s.Add(benchTuple(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	s := NewSet()
	for i := 0; i < 100; i++ {
		s.Add(benchTuple(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := MarshalJSON(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTupleBuild prices building a tuple of n attributes one Put at
// a time and with NewTupleOf, then hashing it as a set insertion does:
// over interned layouts, past the arity bound (n=100), and with a full
// table ("full/"), where every list the table lacks builds a private
// layout.
func BenchmarkTupleBuild(b *testing.B) {
	attrs := make([]string, 100)
	vals := make([]Object, len(attrs))
	for i := range attrs {
		attrs[i], vals[i] = fmt.Sprintf("stk%03d", i), Int(i)
	}
	build := func(b *testing.B, n int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := NewTuple()
			for k, a := range attrs[:n] {
				t.Put(a, vals[k])
			}
			_ = t.Hash()
		}
	}
	of := func(b *testing.B, n int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = NewTupleOf(attrs[:n], vals[:n]).Hash()
		}
	}
	for _, n := range []int{3, 8, 100} {
		b.Run(fmt.Sprintf("put/n=%d", n), func(b *testing.B) { build(b, n) })
		b.Run(fmt.Sprintf("of/n=%d", n), func(b *testing.B) { of(b, n) })
	}
	freshLayoutTable(b)
	fillLayoutTable()
	for _, n := range []int{3, 8} {
		b.Run(fmt.Sprintf("full/put/n=%d", n), func(b *testing.B) { build(b, n) })
		b.Run(fmt.Sprintf("full/of/n=%d", n), func(b *testing.B) { of(b, n) })
	}
}
