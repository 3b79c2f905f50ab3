package core

import (
	"context"
	"sync/atomic"

	"idl/internal/object"
)

// MVCC universe versioning (DESIGN.md §17).
//
// The engine's base universe is mutable and guarded by e.mu. Queries
// never evaluate it: the engine freezes the current effective universe
// into an immutable *version* — a copy of the tuple skeleton that shares
// every relation set by reference — and publishes it through an atomic
// head pointer. A query pins the head version (an atomic increment),
// evaluates against its frozen universe with no engine lock held, and
// unpins. Writers never wait for readers; a reader waits for a writer
// only when the head is gone and it must freeze the next version (pin).
//
// The invariants that make the shared sets safe:
//
//   - Freezing happens only under e.mu, and every mutation path (Execute,
//     Call, UpdateBase, catalog DDL, rule registration, member-snapshot
//     installs) runs under e.mu for its whole duration and invalidates
//     the head (head = nil) the moment it changes anything. A reader that
//     finds no head acquires e.mu, refreshes the effective universe,
//     freezes a fresh version and pins it, and releases e.mu before it
//     evaluates (pin) — so a version can never capture a mutation in
//     progress, and no read evaluates under the lock.
//   - Every set a freeze shares into a version is marked frozen
//     (object.Set.Freeze), and a frozen set never changes again.
//     Mutators thaw the sets they change (cowSet, and the catalog
//     through object.Thaw directly): a frozen set is shallow-cloned,
//     the clone replaces it in the (writer-private) parent tuple, and
//     the mutation lands on the clone. Readers of old versions keep
//     iterating the original. For a set in the effective universe,
//     frozen means shared with a retained version, since the newest
//     version is never collected; a frozen set that has left every
//     retained version but not the base (a base relation a derived one
//     came to shadow) costs one clone more, never one less.
//   - Element-level updates never mutate a shared element in place: the
//     update evaluator removes the element, mutates a deep clone, and
//     re-adds it (update.go, rules.go), so elements shared through a
//     cloned set stay frozen too.
//
// Version retention is bounded by maxRevisions: at each freeze, unpinned
// versions beyond the newest maxRevisions are collected. Pinned versions
// always survive — a long-running reader keeps exactly its own snapshot
// alive.

// maxRevisions is the retention bound: the head plus a few recent
// versions, enough to keep cache warmth across quick write bursts
// without accumulating history.
const maxRevisions = 4

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
	// pins counts in-flight readers; a version is collectable only at
	// zero pins (and only when it is no longer the head).
	pins atomic.Int64
	// bytes estimates the snapshot's retained footprint.
	bytes int64
}

// pinHead pins the current head version for reading, or returns nil when
// no fresh version is published (pin then freezes one). The
// pin-then-recheck loop closes the race against a concurrent publish +
// GC: either the GC observes our pin and spares the version, or we
// observe the newer head and back off.
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

// pin pins the version a read evaluates: the published head, or — when
// a mutation has dropped it — a fresh one, refreshed, frozen and pinned
// under e.mu, which is released before pin returns. Evaluation starts
// only after that, so no read evaluates under e.mu. rounds counts the
// fixpoint rounds the refresh ran (0 when the head was published). The
// caller unpins v.
func (e *Engine) pin(ctx context.Context) (v *version, rounds uint64, err error) {
	if head := e.pinHead(); head != nil {
		return head, 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.fixpointRounds
	if _, err := e.refreshEffective(ctx); err != nil {
		return nil, 0, err
	}
	v = e.publishHeadLocked()
	v.pins.Add(1) // collection runs under e.mu, so this pin cannot race it
	return v, e.fixpointRounds - before, nil
}

// publishHeadLocked freezes the current effective universe into a new
// version and publishes it, unless a fresh head already exists. The
// caller holds e.mu and has already run refreshEffective successfully.
func (e *Engine) publishHeadLocked() *version {
	if v := e.head.Load(); v != nil {
		return v
	}
	v := &version{readView: readView{epoch: e.epoch, opts: e.opts, em: e.em, tracer: e.tracer, unavailable: e.unavailable}}
	v.eff = freezeTuple(e.effective, v)
	e.versions = append(e.versions, v)
	e.head.Store(v)
	e.mvccFreezes++
	e.collectVersionsLocked()
	e.publishMVCCGauges()
	return v
}

// freezeTuple copies t's tuple skeleton — every tuple reachable without
// crossing a set — and shares sets and atoms by reference, freezing the
// shared sets and counting their bytes on v. The copy makes every tuple
// in the snapshot private to it, so in-place tuple mutation of the live
// universe (attribute writes, DDL at any nesting depth outside sets)
// needs no COW at all; only sets are shared mutables, and those are
// thawed before they change. Callers hold e.mu.
func freezeTuple(t *object.Tuple, v *version) *object.Tuple {
	cp := object.NewTuple()
	t.Each(func(attr string, val object.Object) bool {
		switch x := val.(type) {
		case *object.Tuple:
			cp.Put(attr, freezeTuple(x, v))
		case *object.Set:
			x.Freeze()
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
// pinned, and beyond the maxRevisions retention window (newest first).
// Callers hold e.mu.
func (e *Engine) collectVersionsLocked() {
	head := e.head.Load()
	kept := e.versions[:0]
	// Walk oldest→newest; retain the newest maxRevisions unconditionally.
	cut := len(e.versions) - maxRevisions
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

// cowSet is the engine's copy-on-write choke point for set mutation
// under e.mu: object.Thaw, with the clone counted. It returns s itself
// unless s is frozen; then a shallow clone (writer-private until the
// next freeze) replaces s under parent.attr and is returned. Callers
// must hold e.mu — every mutation path does.
func (e *Engine) cowSet(parent *object.Tuple, attr string, s *object.Set) *object.Set {
	c, cloned := object.Thaw(parent, attr, s)
	if cloned {
		e.mvccCOWClones++
	}
	return c
}

// cowSetUndo wraps cowSet with an undo entry restoring the original set
// pointer on rollback, so a rolled-back request leaves the universe
// pointer-identical and the original sets' memos (indexes, statistics)
// stay warm.
func (e *Engine) cowSetUndo(u *updater) func(parent *object.Tuple, attr string, s *object.Set) *object.Set {
	return func(parent *object.Tuple, attr string, s *object.Set) *object.Set {
		c := e.cowSet(parent, attr, s)
		if c != s {
			u.undo.record(func() { parent.Put(attr, s) })
		}
		return c
	}
}

// invalidateHead drops the published head so the next reader freezes a
// fresh snapshot. Called (under e.mu) by markDirty and by every setter
// that changes evaluation-relevant engine state.
func (e *Engine) invalidateHead() {
	e.head.Store(nil)
}

// MVCCStats reports the version chain's state for observability surfaces
// (`\mvcc`, /debug/mvcc, health); its JSON is the body of /debug/mvcc
// and the health report's "mvcc" entry.
type MVCCStats struct {
	// LiveVersions is the number of retained snapshot versions.
	LiveVersions int `json:"live_versions"`
	// HeadEpoch is the published head's epoch (0 when no head is
	// published — i.e. a mutation has not yet been followed by a read).
	HeadEpoch uint64 `json:"head_epoch"`
	// HeadPublished reports whether a head snapshot is currently live.
	HeadPublished bool `json:"head_published"`
	// PinnedReaders is the instantaneous sum of reader pins.
	PinnedReaders int64 `json:"pinned_readers"`
	// PinnedEpochs lists the epochs of versions pinned right now.
	PinnedEpochs []uint64 `json:"pinned_epochs,omitempty"`
	// RetainedBytes estimates the logical footprint of retained
	// versions (shared sets counted per version exposing them).
	RetainedBytes int64 `json:"retained_bytes"`
	// Freezes counts snapshots frozen since the engine started.
	Freezes uint64 `json:"freezes"`
	// Collected counts versions garbage-collected.
	Collected uint64 `json:"collected"`
	// COWClones counts copy-on-write set clones taken by the engine's
	// writers (update requests, program calls, view maintenance); a
	// catalog bulk load thaws its target set uncounted.
	COWClones uint64 `json:"cow_clones"`
	// MaxRevisions is the retention bound.
	MaxRevisions int `json:"max_revisions"`
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
		MaxRevisions: maxRevisions,
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
