package core

import (
	"sync/atomic"

	"idl/internal/object"
)

// MVCC universe versioning (DESIGN.md §17).
//
// The engine's base universe is mutable and guarded by e.mu, exactly as
// before. What changed is the read path: instead of evaluating queries
// under the mutex, the engine freezes the current effective universe
// into an immutable *version* — a copy of the tuple skeleton that shares
// every relation set by reference — and publishes it through an atomic
// head pointer. A query pins the head version (an atomic increment),
// evaluates against its frozen universe with no engine lock held, and
// unpins. Writers never wait for readers and readers never wait for
// writers; they meet only at the narrow publish step.
//
// The invariants that make the shared sets safe:
//
//   - Freezing happens only under e.mu, and every mutation path (Execute,
//     Call, UpdateBase, catalog DDL, rule registration, member-snapshot
//     installs) runs under e.mu for its whole duration and invalidates
//     the head (head = nil) the moment it changes anything. A reader that
//     finds no head takes the slow path: it acquires e.mu, refreshes the
//     effective universe, and freezes a fresh version — so a version can
//     never capture a mutation in progress.
//   - Every set reachable from any live version is recorded in
//     e.published. Mutators copy-on-write published sets (cowSet /
//     MutableSet): the set is shallow-cloned, the clone replaces it in
//     the (writer-private) parent tuple, and the mutation lands on the
//     clone. Readers of old versions keep iterating the original.
//   - Element-level updates never mutate a shared element in place: the
//     update evaluator removes the element, mutates a deep clone, and
//     re-adds it (update.go, rules.go), so elements shared through a
//     cloned set stay frozen too.
//
// Version retention is bounded by Options.MaxRevisions: at each freeze,
// unpinned versions beyond the newest MaxRevisions are collected.
// Pinned versions always survive — a long-running reader keeps exactly
// its own snapshot alive.

// defaultMaxRevisions is the retention bound when Options.MaxRevisions
// is zero: the head plus a few recent versions, enough to keep cache
// warmth across quick write bursts without accumulating history.
const defaultMaxRevisions = 4

// versionElemBytes is the crude per-element cost estimate used for the
// retained-bytes gauge (elements are shared, so this deliberately counts
// logical exposure, not unique heap).
const versionElemBytes = 64

// version is one immutable snapshot of the effective universe.
type version struct {
	// readView is what every read of the version evaluates against, with
	// no engine lock held. eff is the frozen effective universe: a private
	// copy of every tuple reachable without crossing a set, sharing the
	// sets. epoch is the catalog epoch of the freeze; plans validated at
	// it evaluate without revalidation. The options, observability hooks
	// and unreachable members are the engine's at freeze, kept even if the
	// engine's change later (SetUnavailable replaces its map, never
	// mutates it). A traced read builds its span tree and per-conjunct
	// probes as per-evaluation state; the tracer's ring has its own lock.
	readView
	// sets lists the shared relation sets, for publish-set accounting
	// and cache retention.
	sets []*object.Set
	// pins counts in-flight readers; a version is collectable only at
	// zero pins (and only when it is no longer the head).
	pins atomic.Int64
	// bytes estimates the snapshot's retained footprint.
	bytes int64
}

// pinHead pins the current head version for reading, or returns nil when
// no fresh version is published (the caller must take the locked slow
// path). The pin-then-recheck loop closes the race against a concurrent
// publish + GC: either the GC observes our pin and spares the version,
// or we observe the newer head and back off.
func (e *Engine) pinHead() *version {
	for {
		v := e.head.Load()
		if v == nil {
			return nil
		}
		v.pins.Add(1)
		if e.head.Load() == v {
			return v
		}
		v.pins.Add(-1)
	}
}

// unpin releases a pinned version.
func (v *version) unpin() { v.pins.Add(-1) }

// publishHeadLocked freezes the current effective universe into a new
// version and publishes it, unless a fresh head already exists. The
// caller holds e.mu and has already run refreshEffective successfully.
func (e *Engine) publishHeadLocked() *version {
	if v := e.head.Load(); v != nil {
		return v
	}
	v := &version{readView: e.lockedView()}
	v.eff = freezeTuple(e.effective, v)
	e.versions = append(e.versions, v)
	e.head.Store(v)
	e.mvccFreezes++
	e.collectVersionsLocked()
	e.rebuildPublishedLocked()
	e.publishMVCCGauges()
	return v
}

// freezeTuple copies t's tuple skeleton — every tuple reachable without
// crossing a set — and shares sets and atoms by reference, recording the
// shared sets on v. The copy makes every tuple in the snapshot private
// to it, so in-place tuple mutation of the live universe (attribute
// writes, DDL at any nesting depth outside sets) needs no COW at all;
// only sets are shared mutables, and those go through cowSet.
func freezeTuple(t *object.Tuple, v *version) *object.Tuple {
	cp := object.NewTuple()
	t.Each(func(attr string, val object.Object) bool {
		switch x := val.(type) {
		case *object.Tuple:
			cp.Put(attr, freezeTuple(x, v))
		case *object.Set:
			v.sets = append(v.sets, x)
			v.bytes += int64(x.Len()) * versionElemBytes
			cp.Put(attr, x)
		default:
			cp.Put(attr, val)
		}
		v.bytes += versionElemBytes
		return true
	})
	return cp
}

// collectVersionsLocked drops versions that are not the head, not
// pinned, and beyond the MaxRevisions retention window (newest first).
// Callers hold e.mu.
func (e *Engine) collectVersionsLocked() {
	max := e.opts.MaxRevisions
	if max <= 0 {
		max = defaultMaxRevisions
	}
	head := e.head.Load()
	kept := e.versions[:0]
	// Walk oldest→newest; retain the newest max versions unconditionally.
	cut := len(e.versions) - max
	for i, v := range e.versions {
		if v == head || i >= cut || v.pins.Load() > 0 {
			kept = append(kept, v)
			continue
		}
		e.mvccCollected++
	}
	// Zero the tail so collected versions are actually unreachable.
	for i := len(kept); i < len(e.versions); i++ {
		e.versions[i] = nil
	}
	e.versions = kept
}

// rebuildPublishedLocked recomputes the published-set map as the union
// of every live version's shared sets. It must cover ALL live versions,
// not just the head: a set can drop out of the current effective
// universe (e.g. a new rule merges it into a union set) while an older
// pinned snapshot still shares it — a writer must keep copy-on-writing
// it until that snapshot dies. Callers hold e.mu.
func (e *Engine) rebuildPublishedLocked() {
	pub := make(map[*object.Set]bool)
	for _, v := range e.versions {
		for _, s := range v.sets {
			pub[s] = true
		}
	}
	e.published = pub
}

// cowSet is the copy-on-write choke point for set mutation under e.mu:
// if s is shared with a live snapshot, it is shallow-cloned, the clone
// replaces it under parent.attr, and the clone (writer-private until the
// next freeze) is returned; otherwise s itself is returned. Callers must
// hold e.mu — every mutation path does.
func (e *Engine) cowSet(parent *object.Tuple, attr string, s *object.Set) *object.Set {
	if !e.published[s] {
		return s
	}
	c := s.ShallowClone()
	parent.Put(attr, c)
	e.mvccCOWClones++
	return c
}

// cowSetUndo wraps cowSet with an undo entry restoring the original set
// pointer on rollback, so a rolled-back request leaves the universe
// pointer-identical and set-pointer-keyed caches (indexes, statistics,
// plan dependencies) stay warm.
func (e *Engine) cowSetUndo(u *updater) func(parent *object.Tuple, attr string, s *object.Set) *object.Set {
	return func(parent *object.Tuple, attr string, s *object.Set) *object.Set {
		c := e.cowSet(parent, attr, s)
		if c != s {
			u.undo.record(func() { parent.Put(attr, s) })
		}
		return c
	}
}

// MutableSet is cowSet exposed for the catalog's write barrier: the
// catalog calls it for the relation set it is about to Insert into. It
// must only be called from within an UpdateBase functor (which holds
// e.mu); it takes no lock itself.
func (e *Engine) MutableSet(parent *object.Tuple, attr string, s *object.Set) *object.Set {
	return e.cowSet(parent, attr, s)
}

// invalidateHead drops the published head so the next reader freezes a
// fresh snapshot. Called (under e.mu) by markDirty and by every setter
// that changes evaluation-relevant engine state.
func (e *Engine) invalidateHead() {
	e.head.Store(nil)
}

// MVCCStats reports the version chain's state for observability surfaces
// (`\mvcc`, /debug/mvcc, health).
type MVCCStats struct {
	// LiveVersions is the number of retained snapshot versions.
	LiveVersions int
	// HeadEpoch is the published head's epoch (0 when no head is
	// published — i.e. a mutation has not yet been followed by a read).
	HeadEpoch uint64
	// HeadPublished reports whether a head snapshot is currently live.
	HeadPublished bool
	// PinnedReaders is the instantaneous sum of reader pins.
	PinnedReaders int64
	// PinnedEpochs lists the epochs of versions pinned right now.
	PinnedEpochs []uint64
	// RetainedBytes estimates the logical footprint of retained
	// versions (shared sets counted per version exposing them).
	RetainedBytes int64
	// Freezes counts snapshots frozen since the engine started.
	Freezes uint64
	// Collected counts versions garbage-collected.
	Collected uint64
	// COWClones counts copy-on-write set clones taken by writers.
	COWClones uint64
	// MaxRevisions is the effective retention bound.
	MaxRevisions int
}

// MVCCStats snapshots the version-chain state.
func (e *Engine) MVCCStats() MVCCStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := MVCCStats{
		LiveVersions: len(e.versions),
		Freezes:      e.mvccFreezes,
		Collected:    e.mvccCollected,
		COWClones:    e.mvccCOWClones,
		MaxRevisions: e.opts.MaxRevisions,
	}
	if st.MaxRevisions <= 0 {
		st.MaxRevisions = defaultMaxRevisions
	}
	if h := e.head.Load(); h != nil {
		st.HeadEpoch = h.epoch
		st.HeadPublished = true
	}
	for _, v := range e.versions {
		st.RetainedBytes += v.bytes
		if p := v.pins.Load(); p > 0 {
			st.PinnedReaders += p
			st.PinnedEpochs = append(st.PinnedEpochs, v.epoch)
		}
	}
	return st
}

// publishMVCCGauges pushes the version-chain gauges to the metrics
// registry. Callers hold e.mu.
func (e *Engine) publishMVCCGauges() {
	if e.em == nil {
		return
	}
	var bytes int64
	for _, v := range e.versions {
		bytes += v.bytes
	}
	e.em.mvccLiveVersions.Set(int64(len(e.versions)))
	e.em.mvccRetainedBytes.Set(bytes)
}
