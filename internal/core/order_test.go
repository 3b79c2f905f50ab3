package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"idl/internal/object"
)

// orderPalette is what the generated answers' columns draw from, by
// kind: numbers that tie without being equal (ints past 2^53, ±0) or
// that Compare ties with everything (NaN), dates whose unvalidated days
// give one ordinal to two dates, strings around the 7- and 8-byte key
// boundary (shared prefixes, embedded zero bytes, non-ASCII), and values
// with no key at all. No tuple or set holds a NaN: Object.Compare ties
// a NaN with every number, so a row holding one inside an aggregate has
// no canonical position for any sort to agree on.
var orderPalette = [][]object.Object{
	{object.Int(-3), object.Int(0), object.Int(2), object.Int(7), object.Int(1 << 53), object.Int(1<<53 + 1), object.Int(math.MinInt64), object.Int(math.MaxInt64)},
	{object.Float(math.Copysign(0, -1)), object.Float(0), object.Float(-1.5), object.Float(2), object.Float(0.25), object.Float(math.NaN()), object.Float(math.Inf(1)), object.Float(math.Inf(-1)), object.Float(1 << 53)},
	{object.NewDate(85, 1, 3), object.NewDate(85, 1, 4), object.NewDate(85, 2, 8), object.NewDate(85, 1, 40), object.NewDate(86, 1, 1), object.Date{Year: -5, Month: 3, Day: 3}, object.NewDate(85, 0, 0)},
	{object.Str(""), object.Str("a"), object.Str("ab"), object.Str("ab\x00"), object.Str("stk001"), object.Str("stk002"), object.Str("abcdefg"), object.Str("abcdefg\x00"), object.Str("abcdefgh"), object.Str("abcdefgX"), object.Str("abcdefghijk"), object.Str("abcdefghijl"), object.Str("é"), object.Str("ébc"), object.Str("日本語テキスト"), object.Str("\xff\xfe")},
	{nil, object.Null{}, object.Bool(false), object.Bool(true), object.TupleOf("x", 1), object.TupleOf("x", 1, "y", "b"), object.TupleOf("y", 0), object.SetOf(1, 2), object.SetOf("a"), object.SetOf()},
}

// orderCase builds an answer from data: a width, a palette mix per
// column (one kind, two kinds, or all), and rows drawn from it either as
// they come or laid out as ascending runs. It returns the answer and a
// permutation of its rows to sort from.
func orderCase(data []byte) (*Answer, []int32) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	width := 1 + next()%4
	pools := make([][]object.Object, width)
	for c := range pools {
		m := next()
		switch k := m % (len(orderPalette) + 3); {
		case k < len(orderPalette):
			pools[c] = orderPalette[k]
		case k == len(orderPalette):
			pools[c] = append(slices.Clip(orderPalette[0]), orderPalette[1]...)
		case k == len(orderPalette)+1:
			pools[c] = append(slices.Clip(orderPalette[m/8%4]), orderPalette[4][:2]...)
		default:
			for _, p := range orderPalette {
				pools[c] = append(pools[c], p...)
			}
		}
	}
	n := next() + next()%4*64
	layout := next() % 3
	rows := make([][]object.Object, 0, n)
	for range n {
		row := make([]object.Object, width)
		for c, pool := range pools {
			row[c] = pool[next()%len(pool)]
		}
		rows = append(rows, row)
	}
	if layout > 0 {
		// Ascending runs of a drawn length, as a view's rows arrive
		// stock by stock; layout 2 leaves one row in each out of place.
		run := 1 + next()%32
		for lo := 0; lo < len(rows); lo += run {
			seg := rows[lo:min(lo+run, len(rows))]
			slices.SortStableFunc(seg, compareRows)
			if layout == 2 && len(seg) > 2 {
				seg[0], seg[len(seg)/2] = seg[len(seg)/2], seg[0]
			}
		}
	}
	vars := make([]string, width)
	for c := range vars {
		vars[c] = fmt.Sprintf("V%d", c)
	}
	a := newAnswer(vars)
	for _, row := range rows {
		a.rows.add(row)
	}
	order := make([]int32, a.Len())
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := next() % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return a, order
}

// checkCanonicalOrder demands that sortInto's permutation equal the
// stable sort by compareRows, from the answer's prior order when it has
// one and from insertion order otherwise.
func checkCanonicalOrder(t *testing.T, data []byte) {
	a, order := orderCase(data)
	for _, prior := range [][]int32{nil, order} {
		a.order = prior
		want := slices.Clone(prior)
		if prior == nil {
			want = make([]int32, a.Len())
			for i := range want {
				want[i] = int32(i)
			}
		}
		slices.SortStableFunc(want, func(i, j int32) int { return compareRows(a.rows.row(int(i)), a.rows.row(int(j))) })
		s := sortPool.Get().(*sortScratch)
		s.perm = a.sortInto(s.perm[:0], s)
		if !slices.Equal(s.perm, want) {
			t.Fatalf("%d rows, width %d, from a permutation %v:\n got %v\nwant %v\nrows %v", a.Len(), len(a.Vars), prior != nil, s.perm, want, a.Rows())
		}
		sortPool.Put(s)
	}
}

// TestCanonicalOrderMatchesStableSort runs checkCanonicalOrder over
// random answers.
func TestCanonicalOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]byte, 2048)
	for range 3000 {
		r.Read(data)
		checkCanonicalOrder(t, data)
	}
}

// FuzzCanonicalOrder is TestCanonicalOrderMatchesStableSort over answers
// the fuzzer shapes.
func FuzzCanonicalOrder(f *testing.F) {
	for _, s := range []string{
		"", "\x00\x00\x05\x00\x00", "\x03\x00\x01\x02\x03\x40\x01\x01\x07",
		"\x00\x01\xff\x00\x01\x00\x02\x05\x06\x07\x00\x01\x02\x03\x05\x01",
		"\x01\x03\x02\x80\x02\x02\x08\x09\x0a\x0b\x0c\x08\x09\x0a\x0b\x0c",
		"\x03\x07\x06\x05\x04\xc0\x01\x02\x05",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkCanonicalOrder)
}

// BenchmarkAnswerSort prices the canonical sort alone on three answer
// shapes of served.scan over 30 stocks × 60 days: 30 ascending runs of
// 60 dates (scan.unified, read stock by stock), date-major rows with
// every 50th pair out of order (a nearly sorted join), and [S D] rows
// already in order (scan.dbO).
func BenchmarkAnswerSort(b *testing.B) {
	date := func(d int) object.Object { return object.NewDate(85, 1+d/28, 1+d%28) }
	stk := func(s int) object.Object { return object.Str(fmt.Sprintf("stk%03d", s+1)) }
	runs := newAnswer([]string{"D", "S", "P"})
	for s := range 30 {
		for d := range 60 {
			runs.rows.add([]object.Object{date(d), stk(s), object.Int(50 + (s*7+d*3)%90)})
		}
	}
	nearly := newAnswer([]string{"D", "S", "P"})
	var rows [][]object.Object
	for d := range 60 {
		for s := range 30 {
			rows = append(rows, []object.Object{date(d), stk(s), object.Int(50 + (s*7+d*3)%90)})
		}
	}
	for i := 49; i+1 < len(rows); i += 50 {
		rows[i], rows[i+1] = rows[i+1], rows[i]
	}
	for _, row := range rows {
		nearly.rows.add(row)
	}
	sorted := newAnswer([]string{"S", "D"})
	for s := range 30 {
		for d := range 30 {
			sorted.rows.add([]object.Object{stk(s), date(2 * d)})
		}
	}
	for _, c := range []struct {
		name string
		a    *Answer
	}{{"runs", runs}, {"nearly", nearly}, {"sorted", sorted}} {
		b.Run(c.name, func(b *testing.B) {
			s := sortPool.Get().(*sortScratch)
			b.ReportAllocs()
			for range b.N {
				s.perm = c.a.sortInto(s.perm[:0], s)
			}
			sortPool.Put(s)
		})
	}
}
