package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"idl/internal/object"
)

// The map-row Answer the positional one replaced, kept verbatim as the
// reference: a row is a map from variable name to value (an unbound
// variable has no entry), dedup hashes the map, Sort and String look
// values up by name. The differential test below replays random row
// sequences through both and demands identical observable behaviour.

type refRow map[string]object.Object

func refHashRow(r refRow) uint64 {
	var acc uint64 = 0x243f6a8885a308d3
	for k, v := range r {
		h := object.Str(k).Hash() * 31
		acc += h ^ v.Hash()
	}
	return acc
}

func refRowsEqual(a, b refRow) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

type refAnswer struct {
	Vars     []string
	Rows     []refRow
	rowIndex map[uint64][]int
}

func newRefAnswer(vars []string) *refAnswer {
	return &refAnswer{Vars: vars, rowIndex: make(map[uint64][]int)}
}

func (a *refAnswer) add(r refRow) bool {
	h := refHashRow(r)
	for _, i := range a.rowIndex[h] {
		if refRowsEqual(a.Rows[i], r) {
			return false
		}
	}
	a.rowIndex[h] = append(a.rowIndex[h], len(a.Rows))
	a.Rows = append(a.Rows, r)
	return true
}

func (a *refAnswer) Contains(want refRow) bool {
	for _, r := range a.Rows {
		if refRowsEqual(r, want) {
			return true
		}
	}
	return false
}

func (a *refAnswer) Column(name string) []object.Object {
	out := make([]object.Object, 0, len(a.Rows))
	for _, r := range a.Rows {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (a *refAnswer) Project(vars ...string) *refAnswer {
	out := newRefAnswer(vars)
	for _, r := range a.Rows {
		p := refRow{}
		for _, v := range vars {
			if val, ok := r[v]; ok {
				p[v] = val
			}
		}
		out.add(p)
	}
	return out
}

func (a *refAnswer) Sort() {
	sort.SliceStable(a.Rows, func(i, j int) bool {
		for _, v := range a.Vars {
			x, okx := a.Rows[i][v]
			y, oky := a.Rows[j][v]
			if !okx || !oky {
				if okx != oky {
					return !okx
				}
				continue
			}
			if c := x.Compare(y); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func (a *refAnswer) String() string {
	if len(a.Vars) == 0 {
		if len(a.Rows) > 0 {
			return "true"
		}
		return "false"
	}
	cp := &refAnswer{Vars: a.Vars, Rows: append([]refRow(nil), a.Rows...)}
	cp.Sort()
	var b strings.Builder
	b.WriteString(strings.Join(a.Vars, "\t"))
	for _, r := range cp.Rows {
		b.WriteByte('\n')
		for i, v := range a.Vars {
			if i > 0 {
				b.WriteByte('\t')
			}
			if val, ok := r[v]; ok {
				b.WriteString(val.String())
			} else {
				b.WriteString("_")
			}
		}
	}
	return b.String()
}

// raw renders the reference's rows in their current order, one per line,
// the way rawRows renders the positional answer's.
func (a *refAnswer) raw() string {
	var b strings.Builder
	for _, r := range a.Rows {
		for _, v := range a.Vars {
			fmt.Fprintf(&b, "%s=%v;", v, r[v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rawRows(a *Answer) string {
	var b strings.Builder
	for _, r := range a.Rows() {
		for i, v := range a.Vars {
			if got := r.At(i); got != r.Get(v) {
				panic(fmt.Sprintf("Row.At(%d)=%v but Get(%s)=%v", i, got, v, r.Get(v)))
			}
			fmt.Fprintf(&b, "%s=%v;", v, r.Get(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// randAnswerValue draws from a pool small enough to collide often: ints
// and floats that are Equal across kinds (Int(2) = Float(2)), ints past
// 2^53 that Compare equal without being Equal (a sort tie), strings that
// need quoting, dates, bools, null, and aggregate values.
func randAnswerValue(r *rand.Rand) object.Object {
	switch r.Intn(12) {
	case 0, 1:
		return object.Int(r.Intn(4))
	case 2:
		return object.Float(r.Intn(4))
	case 3:
		return object.Float(float64(r.Intn(4)) + 0.5)
	case 4:
		return object.Int(1<<53 + int64(r.Intn(2)))
	case 5:
		return object.Str([]string{"hp", "ibm", "Sun", "two words", ""}[r.Intn(5)])
	case 6:
		return object.NewDate(85, 3, 1+r.Intn(3))
	case 7:
		return object.Bool(r.Intn(2) == 0)
	case 8:
		return object.Null{}
	case 9:
		return object.TupleOf("a", r.Intn(2), "b", "x")
	case 10:
		return object.SetOf(r.Intn(2), r.Intn(2))
	default:
		return object.Int(r.Intn(40))
	}
}

// TestAnswerMatchesMapRowReference is the seeded differential test of the
// positional Answer against the retired map-row implementation:
// duplicate rows, unbound positions (rendering `_`, sorting first),
// mixed kinds including Int/Float equality, aggregate-valued bindings,
// and — over both — String, raw and sorted row order, Len, Contains,
// Column and Project.
func TestAnswerMatchesMapRowReference(t *testing.T) {
	allVars := []string{"X", "Y", "Z", "W"}
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		vars := allVars[:r.Intn(len(allVars)+1)]
		got, ref := newAnswer(vars), newRefAnswer(vars)
		var added []refRow
		n := r.Intn(120)
		if seed%20 == 0 {
			n = 700 // several chunks and bucket-array doublings
		}
		for ; n > 0; n-- {
			row := make([]object.Object, len(vars))
			m := refRow{}
			for i, v := range vars {
				if r.Intn(6) == 0 {
					continue // unbound
				}
				row[i] = randAnswerValue(r)
				m[v] = row[i]
			}
			if g, w := got.rows.add(row), ref.add(m); g != w {
				t.Fatalf("seed %d: add(%v) = %v, reference %v", seed, m, g, w)
			}
			added = append(added, m)
		}
		check := func(stage string, got *Answer, ref *refAnswer) {
			t.Helper()
			if got.Len() != len(ref.Rows) || got.Bool() != (len(ref.Rows) > 0) {
				t.Fatalf("seed %d %s: Len %d, reference %d", seed, stage, got.Len(), len(ref.Rows))
			}
			if g, w := rawRows(got), ref.raw(); g != w {
				t.Fatalf("seed %d %s: row order diverges\npositional:\n%s\nreference:\n%s", seed, stage, g, w)
			}
			if g, w := got.String(), ref.String(); g != w {
				t.Fatalf("seed %d %s: String diverges\npositional:\n%s\nreference:\n%s", seed, stage, g, w)
			}
			for _, v := range append([]string{"Nope"}, allVars...) {
				if g, w := fmt.Sprint(got.Column(v)), fmt.Sprint(ref.Column(v)); g != w {
					t.Fatalf("seed %d %s: Column(%s) = %s, reference %s", seed, stage, v, g, w)
				}
			}
		}
		check("raw", got, ref)

		// Contains: every added row, and perturbations of it (a variable
		// dropped, a value changed, a foreign variable added).
		for _, m := range added {
			probes := []refRow{m}
			for v := range m {
				dropped, changed := refRow{}, refRow{}
				for k, val := range m {
					if k != v {
						dropped[k] = val
					}
					changed[k] = val
				}
				changed[v] = randAnswerValue(r)
				probes = append(probes, dropped, changed)
			}
			foreign := refRow{"Nope": object.Int(1)}
			for k, val := range m {
				foreign[k] = val
			}
			probes = append(probes, foreign)
			for _, p := range probes {
				var pairs []any
				for k, val := range p {
					pairs = append(pairs, k, val)
				}
				if g, w := got.Contains(RowOf(pairs...)), ref.Contains(p); g != w {
					t.Fatalf("seed %d: Contains(%v) = %v, reference %v", seed, p, g, w)
				}
			}
		}

		// Project onto a random variable list (possibly reordered, with
		// repeats and unknown names), before and after Sort.
		proj := make([]string, r.Intn(4))
		for i := range proj {
			proj[i] = append([]string{"Nope"}, allVars...)[r.Intn(len(allVars)+1)]
		}
		check("project", got.Project(proj...), ref.Project(proj...))
		got.Sort()
		ref.Sort()
		check("sorted", got, ref)
		check("sorted project", got.Project(proj...), ref.Project(proj...))
		got.Sort() // idempotent, and stable from the sorted order
		ref.Sort()
		check("sorted twice", got, ref)
	}
}

// TestAnswerVarsDoNotAliasPlanCapacity: Answer.Vars is a window onto the
// cached plan's name table, which concurrent readers share. It must come
// back capped, so a caller's append copies rather than writing there.
func TestAnswerVarsDoNotAliasPlanCapacity(t *testing.T) {
	e := newStockEngine(t)
	const src = "?.euter.r(.stkCode=S, .clsPrice=P)"
	first := q(t, e, src)
	if cap(first.Vars) != len(first.Vars) {
		t.Fatalf("Answer.Vars has spare capacity %d over length %d", cap(first.Vars), len(first.Vars))
	}
	_ = append(first.Vars, "Intruder")
	again := q(t, e, src) // plan cache hit: same scope
	if first.String() != again.String() {
		t.Fatalf("answers differ after a caller's append:\n%s\nvs\n%s", first, again)
	}
}

// TestAnswerSortKeepsTiesInOrder: rows whose values Compare equal without
// being Equal (ints past 2^53) keep their relative order in the current
// order through Sort, whether that order is insertion or an earlier
// permutation.
func TestAnswerSortKeepsTiesInOrder(t *testing.T) {
	big := func(d int64) object.Object { return object.Int(1<<53 + d) }
	a := newAnswer([]string{"X"})
	for _, v := range []object.Object{big(1), object.Int(5), big(0), object.Int(7), big(1) /* duplicate */} {
		a.rows.add([]object.Object{v})
	}
	column := func() string { return fmt.Sprint(a.Column("X")) }
	want := fmt.Sprint([]object.Object{object.Int(5), object.Int(7), big(1), big(0)})
	a.Sort()
	if got := column(); got != want {
		t.Fatalf("sorted from insertion order: %s, want %s", got, want)
	}
	a.order = []int32{3, 2, 1, 0} // the ties now stand big(0) before big(1)
	a.Sort()
	want = fmt.Sprint([]object.Object{object.Int(5), object.Int(7), big(0), big(1)})
	if got := column(); got != want {
		t.Fatalf("sorted from a permutation: %s, want %s", got, want)
	}
	if got := a.String(); got != "X\n5\n7\n9007199254740992\n9007199254740993" {
		t.Fatalf("String renders %q", got)
	}
}
