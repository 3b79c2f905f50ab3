package core

import (
	"math/bits"

	"idl/internal/object"
)

// rowSet is the engine's one row representation: a deduplicating store
// of fixed-width positional rows in first-added order. A row is a slice
// of objects indexed by position in some variable list the owner keeps
// (an answer's Vars, a rule's headVars, a unit's whole scope); nil marks
// a variable the substitution left unbound. Answers, rule-body results,
// the substitution bags of update requests and the per-worker results of
// partitioned scans are all rowSets.
//
// Values live in chunks that double in size (8 rows, 16, 32, …), so n
// rows cost O(log n) allocations, rows never move once added, and a row
// handed out stays valid as the set grows. Dedup is a chained hash table
// held in two flat slices — no per-row bucket, no map — that a set of
// up to one chunk does without: it compares stored hashes in a scan.
type rowSet struct {
	width  int
	n      int
	chunks [][]object.Object
	links  []rowLink // per row
	heads  []int32   // per bucket: 1 + index of the newest row; len is a power of two
}

// rowLink is a row's dedup entry: its hash and its bucket chain.
type rowLink struct {
	hash uint64
	next int32 // 1 + index of the previous row in the bucket
}

// rowChunkBase is the row capacity of the first chunk.
const rowChunkBase = 8

func newRowSet(width int) *rowSet { return &rowSet{width: width} }

// presize sizes the dedup table for hint rows, so adding that many
// neither grows nor rechains it. A hint of one chunk or less changes
// nothing: such a set does without the table.
func (s *rowSet) presize(hint int) {
	if hint <= rowChunkBase {
		return
	}
	s.links = make([]rowLink, 0, hint)
	s.heads = make([]int32, 1<<bits.Len(uint(2*hint-1)))
}

func (s *rowSet) len() int { return s.n }

// reset empties the set, keeping its storage for the rows added next.
func (s *rowSet) reset() {
	s.n = 0
	s.links = s.links[:0]
	clear(s.heads)
}

// locate maps a row index to its chunk and the row's offset within it.
func (s *rowSet) locate(i int) (chunk, off int) {
	j := uint(i/rowChunkBase + 1)
	chunk = bits.Len(j) - 1
	return chunk, (i - rowChunkBase*(1<<chunk-1)) * s.width
}

// row returns the i-th row. The slice aliases the store: read-only.
func (s *rowSet) row(i int) []object.Object {
	c, off := s.locate(i)
	return s.chunks[c][off : off+s.width : off+s.width]
}

func hashRow(row []object.Object) uint64 {
	var h uint64 = 0x243f6a8885a308d3
	for _, v := range row {
		h *= 31
		if v != nil {
			h += v.Hash()
		}
	}
	return h
}

func rowsEqual(a, b []object.Object) bool {
	for i, v := range a {
		w := b[i]
		if (v == nil) != (w == nil) || v != nil && !v.Equal(w) {
			return false
		}
	}
	return true
}

// find returns the index of the stored row equal to row, or -1.
func (s *rowSet) find(row []object.Object, hash uint64) int {
	if len(s.heads) == 0 {
		for i := range s.links {
			if s.links[i].hash == hash && rowsEqual(s.row(i), row) {
				return i
			}
		}
		return -1
	}
	for i := s.heads[hash&uint64(len(s.heads)-1)]; i != 0; i = s.links[i-1].next {
		if s.links[i-1].hash == hash && rowsEqual(s.row(int(i-1)), row) {
			return int(i - 1)
		}
	}
	return -1
}

// add copies row into the store unless an equal row is present, and
// reports whether it was new. row must be width long; the caller keeps
// ownership of it (the evaluator passes a window of its substitution).
func (s *rowSet) add(row []object.Object) bool {
	return s.addHashed(row, hashRow(row))
}

func (s *rowSet) addHashed(row []object.Object, hash uint64) bool {
	if s.find(row, hash) >= 0 {
		return false
	}
	if s.n >= rowChunkBase && s.n >= len(s.heads)/2 {
		s.grow()
	}
	c, off := s.locate(s.n)
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]object.Object, (rowChunkBase<<c)*s.width))
	}
	copy(s.chunks[c][off:off+s.width], row)
	link := rowLink{hash: hash}
	s.n++
	if len(s.heads) != 0 {
		b := hash & uint64(len(s.heads)-1)
		link.next, s.heads[b] = s.heads[b], int32(s.n)
	}
	s.links = append(s.links, link)
	return true
}

// grow doubles the bucket array (the first one is four times the first
// chunk) and rechains every row; chains keep newest-first order, which
// is all find relies on.
func (s *rowSet) grow() {
	size := max(2*len(s.heads), 4*rowChunkBase)
	s.heads = make([]int32, size)
	for i := range s.links {
		b := s.links[i].hash & uint64(size-1)
		s.links[i].next, s.heads[b] = s.heads[b], int32(i+1)
	}
}

// addAll adds src's rows in order, reusing their hashes — the ordered
// merge of per-worker chunk results.
func (s *rowSet) addAll(src *rowSet) {
	for i := 0; i < src.n; i++ {
		s.addHashed(src.row(i), src.links[i].hash)
	}
}
