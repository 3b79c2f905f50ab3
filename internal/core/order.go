package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"idl/internal/object"
)

// The canonical order of an answer's rows (Answer.Sort, String and the
// wire render): rows ordered by compareRows, ties keeping their current
// relative order. It is presentation only — an answer is a set — so it
// should cost no more than its rows: an answer already in order costs
// one key compare per row, and any other merges its ascending runs.

// compareRows orders two rows by each position in turn: unbound first,
// then by Compare, with a NaN before every other number. Compare ties a
// NaN with every number, which is no order at all (1 ties NaN ties 2,
// yet 1 < 2), so without the NaN rule no stable sort's result would be
// canonical.
func compareRows(x, y []object.Object) int {
	for i, v := range x {
		w := y[i]
		if v == nil || w == nil {
			if (v == nil) != (w == nil) {
				if v == nil {
					return -1
				}
				return 1
			}
			continue
		}
		if c := v.Compare(w); c != 0 {
			return c
		}
		if c := compareNaN(v, w); c != 0 {
			return c
		}
	}
	return 0
}

// compareNaN orders a NaN before a number Compare ties it with.
func compareNaN(v, w object.Object) int {
	f, _ := v.(object.Float)
	g, _ := w.(object.Float)
	switch {
	case f == f && g == g, f != f && g != g:
		return 0
	case f != f:
		return -1
	}
	return 1
}

// sortInto appends the canonical order to perm as a permutation of store
// indexes, starting from the answer's current order. An answer of
// minRun rows or more is first decorated with keys, so a comparison is
// a key compare unless a column has no exact key. sortInto then finds
// the ascending runs of the order, extending a run shorter than minRun
// by insertion, and merges them pairwise through one buffer: an answer
// in order (scan.dbO) costs n-1 comparisons, and the 30 runs of
// scan.unified's 1 800 rows about 10 700. Over served.scan's seven pool
// statements on the 30 × 60 stocks universe that is 13 500 comparisons,
// all but 20 of them key compares, where the stable sort it replaced
// made 14 902 through Compare.
func (a *Answer) sortInto(perm []int32, s *sortScratch) []int32 {
	n := a.Len()
	perm = slices.Grow(perm, n)
	base := len(perm)
	if a.order != nil {
		perm = append(perm, a.order...)
	} else {
		for i := range n {
			perm = append(perm, int32(i))
		}
	}
	p := perm[base:]
	s.rows, s.keyed = a.rows, false
	if n >= minRun {
		s.decorate()
	}
	s.runs = append(s.runs[:0], 0)
	for i := 1; i < n; i++ {
		if s.compare(p[i-1], p[i]) <= 0 {
			continue
		}
		if start := int(s.runs[len(s.runs)-1]); i-start < minRun {
			x, j := p[i], i-1
			p[i] = p[j]
			for ; j > start && s.compare(x, p[j-1]) < 0; j-- {
				p[j] = p[j-1]
			}
			p[j] = x
		} else {
			s.runs = append(s.runs, int32(i))
		}
	}
	if len(s.runs) > 1 {
		s.merge(p)
	}
	s.rows = nil
	return perm
}

// Sort orders rows canonically (by each variable in Vars order) for
// deterministic output.
func (a *Answer) Sort() {
	s := sortPool.Get().(*sortScratch)
	a.order = a.sortInto(nil, s)
	sortPool.Put(s)
}

// sortScratch is one sort's working storage, pooled so rendering into a
// warm buffer allocates nothing: the permutation a render walks, the
// merge buffer, the run starts, and the key columns.
type sortScratch struct {
	perm []int32
	buf  []int32
	runs []int32
	rows *rowSet
	// keys holds one key per row and column, row-major by store index,
	// when keyed; kinds says how each column's keys compare.
	keyed bool
	keys  []uint64
	kinds []keyKind
}

// minRun is the shortest run sortInto merges and the fewest rows it
// decorates: below it, inserting a row costs less than another merge and
// keys cost more than they save, so a shorter answer is insertion-sorted
// through compareRows.
const minRun = 16

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

// keyKind is how a column's keys order its values.
type keyKind uint8

const (
	// keyNone: no exact key (a NaN, an unbound value, a tuple or set,
	// or two key kinds in one column); every key is 0 and compareRows
	// decides.
	keyNone keyKind = iota
	// keyNumber: Int and Float alike, through float64 as Compare takes
	// them (numKey); equal keys are equal values.
	keyNumber
	// keyDate: Date.Compare's ordinal; equal keys are equal values.
	keyDate
	// keyString: the first 7 bytes and the length capped at 8 (strKey);
	// equal keys of two strings of 8 bytes or more need the full compare.
	keyString
)

// decorate fills the key columns of s.rows: a column keeps the kind of
// its first row's key while every row's value has one of that kind.
func (s *sortScratch) decorate() {
	rows := s.rows
	n, w := rows.len(), rows.width
	s.keyed = true
	s.keys = slices.Grow(s.keys[:0], n*w)[:n*w]
	s.kinds = s.kinds[:0]
	for _, v := range rows.row(0) {
		kind, _ := key(v)
		s.kinds = append(s.kinds, kind)
	}
	for i := range n {
		k := s.keys[i*w : i*w+w]
		for c, v := range rows.row(i) {
			if s.kinds[c] == keyNone {
				continue
			}
			if kind, kv := key(v); kind == s.kinds[c] {
				k[c] = kv
			} else {
				s.kinds[c] = keyNone
			}
		}
	}
	for c, kind := range s.kinds {
		if kind == keyNone {
			for i := range n {
				s.keys[i*w+c] = 0
			}
		}
	}
}

// key returns a value's key and its kind; keyNone when it has none.
func key(v object.Object) (keyKind, uint64) {
	switch v := v.(type) {
	case object.Int:
		return keyNumber, numKey(float64(v))
	case object.Float:
		if v != v {
			return keyNone, 0
		}
		return keyNumber, numKey(float64(v))
	case object.Date:
		// Date.Compare's ordinal, sign-flipped to order as unsigned.
		return keyDate, uint64(int64(v.Year)*512+int64(v.Month)*32+int64(v.Day)) ^ 1<<63
	case object.Str:
		return keyString, strKey(string(v))
	}
	return keyNone, 0
}

// numKey maps a float64 that is not NaN to a key that orders as the
// float does, -0 tying with +0.
func numKey(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// strKey is a string's first 7 bytes, zero-padded, then its length
// capped at 8. Two keys differ as their strings order; equal keys are
// equal strings unless both lengths read 8.
func strKey(s string) uint64 {
	var k uint64
	for i := range 7 {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k<<8 | uint64(min(len(s), 8))
}

// compare orders two rows by store index: by compareRows until the
// rows are keyed.
func (s *sortScratch) compare(i, j int32) int {
	if !s.keyed {
		return compareRows(s.rows.row(int(i)), s.rows.row(int(j)))
	}
	w := len(s.kinds)
	ki, kj := s.keys[int(i)*w:int(i)*w+w], s.keys[int(j)*w:int(j)*w+w]
	for c, kind := range s.kinds {
		x, y := ki[c], kj[c]
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
		if kind == keyNumber || kind == keyDate || kind == keyString && x&0xff < 8 {
			continue
		}
		if d := compareRows(s.rows.row(int(i))[c:c+1], s.rows.row(int(j))[c:c+1]); d != 0 {
			return d
		}
	}
	return 0
}

// merge sorts p, whose ascending runs start at s.runs, by merging
// adjacent runs pairwise until one is left.
func (s *sortScratch) merge(p []int32) {
	n := len(p)
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	src, dst := p, s.buf
	runs := append(s.runs, int32(n))
	for len(runs) > 2 {
		next := runs[:1]
		r := 0
		for ; r+2 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[r+2]
			s.mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		if r+1 < len(runs) {
			lo, hi := runs[r], runs[r+1]
			copy(dst[lo:hi], src[lo:hi])
			next = append(next, hi)
		}
		runs = next
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
	s.runs = runs[:0]
}

// mergeRuns merges the ascending runs l and r into dst, l first on ties.
// The rows of l that order before r's first and those of r that order
// after l's last are found by galloping and copied without a merge, so a
// short run merges into a long one in a few comparisons.
func (s *sortScratch) mergeRuns(dst, l, r []int32) {
	head := lead(len(l), func(k int) bool { return s.compare(l[k], r[0]) <= 0 })
	copy(dst, l[:head])
	dst, l = dst[head:], l[head:]
	if len(l) == 0 {
		copy(dst, r)
		return
	}
	last := l[len(l)-1]
	tail := lead(len(r), func(k int) bool { return s.compare(r[len(r)-1-k], last) >= 0 })
	copy(dst[len(dst)-tail:], r[len(r)-tail:])
	dst, r = dst[:len(dst)-tail], r[:len(r)-tail]
	k := 0
	for len(l) > 0 && len(r) > 0 {
		if s.compare(r[0], l[0]) < 0 {
			dst[k], r = r[0], r[1:]
		} else {
			dst[k], l = l[0], l[1:]
		}
		k++
	}
	copy(dst[k+copy(dst[k:], l):], r)
}

// lead returns the length of the prefix of [0, n) on which before holds,
// for a before that holds on a prefix: it gallops out from 0 and then
// bisects, so a prefix of length m costs about 2·log2(m) calls.
func lead(n int, before func(int) bool) int {
	lo, hi := 0, 1
	for hi <= n && before(hi-1) {
		lo, hi = hi, 2*hi
	}
	hi = min(hi-1, n)
	return lo + sort.Search(hi-lo, func(i int) bool { return !before(lo + i) })
}
