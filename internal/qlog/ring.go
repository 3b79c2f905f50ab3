package qlog

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"
)

// Ring is a fixed-size lock-free buffer of the most recent events: the
// flight recorder proper. Writers claim a slot with one atomic add and
// publish the event with one atomic pointer store — no locks, no
// allocation beyond the event itself — so it can stay on for every
// operation at near-zero cost (benchmarked by B12's flightrec pair).
//
// Readers take a point-in-time snapshot by loading every slot. A writer
// racing a snapshot can only make a slot disappear or advance to a newer
// event; snapshots are therefore always a set of valid events, sorted by
// sequence number, but may momentarily miss the oldest entries while a
// lap is in progress. That trade is deliberate: the recorder favours the
// write path, which runs on every query, over the dump path, which runs
// when a human asks.
type Ring struct {
	slots []atomic.Pointer[Event]
	n     atomic.Uint64 // total events ever published
}

// NewRing returns a ring holding the last size events, or nil when
// size <= 0 (a nil *Ring drops events and snapshots empty).
func NewRing(size int) *Ring {
	if size <= 0 {
		return nil
	}
	return &Ring{slots: make([]atomic.Pointer[Event], size)}
}

// Cap returns the ring capacity; 0 for a nil ring.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many events have ever been published.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Put publishes an event, overwriting the oldest slot once full. The
// event must not be mutated afterwards.
func (r *Ring) Put(e *Event) {
	if r == nil || e == nil {
		return
	}
	i := r.n.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(e)
}

// Snapshot returns the currently buffered events ordered by sequence
// number (oldest first).
func (r *Ring) Snapshot() []*Event {
	if r == nil {
		return nil
	}
	out := make([]*Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Tail returns the at most n most recently published events ordered by
// sequence number, in a slice of exactly their own: it loads only those
// n slots, and what it returns keeps no other event reachable. A writer
// racing it can leave a slot holding an older or a newer event, as with
// Snapshot.
func (r *Ring) Tail(n int) []*Event {
	if r == nil || n <= 0 {
		return nil
	}
	total, size := r.n.Load(), uint64(len(r.slots))
	k := min(uint64(n), total, size)
	out := make([]*Event, 0, k)
	for i := total - k; i < total; i++ {
		if e := r.slots[i%size].Load(); e != nil {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}
