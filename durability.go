package idl

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/parser"
	"idl/internal/qlog"
	"idl/internal/wal"
)

// Durability: a DB opened with OpenWAL logs every committed logical
// mutation — update requests, program calls, rule and clause
// registrations, DDL, federated member-snapshot installs; the same event
// set that bumps the catalog epoch — to an append-only write-ahead log,
// and recovers it on the next OpenWAL by replaying the tail over the
// newest checkpoint. The log is redo-only: mutations apply in memory
// first and append on commit, so a WAL append failure leaves memory
// ahead of the log; the log then poisons itself (every later mutation
// fails) rather than let the divergence grow silently.
//
// Paths that mutate the universe without going through the facade —
// direct writes to Engine().Base(), or mutating a *Set returned by
// Catalog().Relation — bypass the log; they are advanced/testing
// surfaces and documented as such (DESIGN.md §13).

// Durability selects the WAL's fsync policy.
type Durability int

const (
	// DurabilitySync fsyncs every commit before acknowledging it — an
	// acknowledged mutation survives a crash. The default.
	DurabilitySync Durability = iota
	// DurabilityGroup group-commits: fsync when enough unsynced bytes
	// accumulate (and on checkpoint/close). A crash can lose the
	// unsynced suffix of acknowledged mutations; recovery is still
	// prefix-consistent.
	DurabilityGroup
	// DurabilityOff never fsyncs on commit (records still reach the OS);
	// the no-durability floor for benchmarking.
	DurabilityOff
)

func (d Durability) String() string {
	switch d {
	case DurabilitySync:
		return "sync"
	case DurabilityGroup:
		return "group"
	case DurabilityOff:
		return "off"
	}
	return fmt.Sprintf("durability%d", int(d))
}

func (d Durability) walMode() wal.SyncMode {
	switch d {
	case DurabilityGroup:
		return wal.SyncGroup
	case DurabilityOff:
		return wal.SyncNever
	}
	return wal.SyncAlways
}

// WALOptions tune the durability layer.
type WALOptions struct {
	// Durability is the fsync policy (default DurabilitySync).
	Durability Durability
	// SegmentBytes rotates log segments at this size (default 1 MiB).
	SegmentBytes int64
	// GroupBytes is the DurabilityGroup fsync threshold (default 64 KiB).
	GroupBytes int64
	// KeepCheckpoints bounds checkpoint retention (default 2).
	KeepCheckpoints int
	// Engine options; zero value means DefaultOptions.
	Engine *Options
	// Bootstrap installs a deterministic base environment (e.g. the demo
	// universe) before the WAL tail replays, so logged mutations land on
	// the state they were committed against. It runs only when no
	// checkpoint was restored — a checkpoint snapshot already contains
	// the bootstrapped state — and nothing it does is logged.
	Bootstrap func(*DB) error
}

// RecoveryReport describes what OpenWAL restored. Its String is the
// startup banner: deliberately timing-free so it is byte-stable for a
// given directory state.
type RecoveryReport struct {
	// CheckpointLSN is the newest good checkpoint's LSN (0 = none).
	CheckpointLSN uint64
	// RulesRestored and ClausesRestored count registrations restored from
	// the checkpoint.
	RulesRestored   int
	ClausesRestored int
	// Replayed counts tail records replayed over the checkpoint
	// (checkpoint markers excluded).
	Replayed int
	// Truncated reports that a torn trailing record was cut off.
	Truncated bool
	// TruncatedSegment names the repaired segment file.
	TruncatedSegment string
	// SkippedCheckpoints counts corrupt checkpoint files passed over.
	SkippedCheckpoints int
}

func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: recovered checkpoint-lsn=%d rules=%d clauses=%d replayed=%d",
		r.CheckpointLSN, r.RulesRestored, r.ClausesRestored, r.Replayed)
	if r.Truncated {
		fmt.Fprintf(&b, " truncated-tail=%s", r.TruncatedSegment)
	}
	if r.SkippedCheckpoints > 0 {
		fmt.Fprintf(&b, " skipped-checkpoints=%d", r.SkippedCheckpoints)
	}
	return b.String()
}

// OpenWAL opens a DB whose committed mutations are logged to the
// write-ahead log in dir, first recovering whatever a previous process
// left there. The report says what was restored; print it as the
// startup banner.
func OpenWAL(dir string, opts WALOptions) (*DB, *RecoveryReport, error) {
	return openWALFS(dir, opts, nil)
}

// openWALFS is OpenWAL with an injectable write-path filesystem — the
// seam the crash-point recovery tests drive a FaultFS through.
func openWALFS(dir string, opts WALOptions, fsys wal.FS) (*DB, *RecoveryReport, error) {
	eopts := DefaultOptions()
	if opts.Engine != nil {
		eopts = *opts.Engine
	}
	db := OpenWithOptions(eopts)
	log, recovered, err := wal.Open(dir, wal.Options{
		SegmentBytes:    opts.SegmentBytes,
		Mode:            opts.Durability.walMode(),
		GroupBytes:      opts.GroupBytes,
		KeepCheckpoints: opts.KeepCheckpoints,
		FS:              fsys,
	})
	if err != nil {
		return nil, nil, err
	}
	report := &RecoveryReport{
		CheckpointLSN:      recovered.CheckpointLSN,
		Truncated:          recovered.Truncated,
		TruncatedSegment:   recovered.TruncatedSegment,
		SkippedCheckpoints: recovered.SkippedCheckpoints,
	}
	// Restore the checkpoint: universe first, then the registrations the
	// snapshot alone cannot carry. db.wal is still nil here, so nothing
	// in the replay re-logs.
	replayStart := time.Now()
	if recovered.Universe != nil {
		recovered.Universe.Each(func(name string, v Value) bool {
			db.engine.Base().Put(name, v)
			return true
		})
		db.engine.Invalidate()
	}
	for _, src := range recovered.Rules {
		if err := db.DefineView(src); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("idl: recover rule %q: %w", src, err)
		}
		report.RulesRestored++
	}
	for _, src := range recovered.Clauses {
		if err := db.DefineProgram(src); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("idl: recover clause %q: %w", src, err)
		}
		report.ClausesRestored++
	}
	if opts.Bootstrap != nil && recovered.Universe == nil {
		if err := opts.Bootstrap(db); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("idl: wal bootstrap: %w", err)
		}
	}
	for _, r := range recovered.Tail {
		if err := db.replayRecord(r); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("idl: replay lsn %d (%s): %w", r.LSN, wal.TypeName(r.Type), err)
		}
		if r.Type != wal.TypeCheckpoint {
			report.Replayed++
		}
	}
	// The logical restore (checkpoint install + registrations + tail
	// redo) joins the log's own scan time in wal.recovery.replay_ns.
	log.NoteReplay(time.Since(replayStart))
	db.rec.Emit(qlog.KindRecover, report.String(), nil)

	// Recovery done: attach the log and wire the commit hooks. From here
	// every committed mutation appends.
	db.wal = log
	db.walDurability = opts.Durability
	// A registry may already exist — a Bootstrap that Mounts a member
	// creates one — so wire the log in now; metricsLocked handles
	// registries created after this point.
	db.mu.Lock()
	log.SetMetrics(db.metricsRef())
	db.mu.Unlock()
	// Catalog DDL and member-snapshot installs commit under the same lock
	// as update requests (DB.commit): apply and append are one critical
	// section, so the log's record order is the apply order.
	db.cat.SetCommitLog(&db.walCommit, func(op, dbName, rel string, tuples []*object.Tuple) error {
		rec := wal.DDLRecord{Op: op, DB: dbName, Rel: rel}
		for _, t := range tuples {
			raw, err := object.MarshalJSON(t)
			if err != nil {
				return fmt.Errorf("idl: wal: encode %s tuple: %w", op, err)
			}
			rec.Tuples = append(rec.Tuples, raw)
		}
		payload, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("idl: wal: encode ddl: %w", err)
		}
		_, err = db.walAppend(wal.TypeDDL, payload)
		return err
	}, func(name string, snap *Tuple) error {
		rec := wal.MemberSnapRecord{Name: name}
		if snap != nil {
			raw, err := object.MarshalJSON(snap)
			if err != nil {
				return fmt.Errorf("idl: wal: encode member snapshot: %w", err)
			}
			rec.Snap = raw
		}
		payload, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("idl: wal: encode member snapshot: %w", err)
		}
		_, err = db.walAppend(wal.TypeMemberSnap, payload)
		return err
	})
	return db, report, nil
}

// replayRecord applies one recovered record. The records were committed
// by a previous process, so replay failures are recovery failures, not
// data: they abort OpenWAL.
func (db *DB) replayRecord(r wal.Record) error {
	switch r.Type {
	case wal.TypeExec:
		q, err := parser.ParseQuery(string(r.Payload))
		if err != nil {
			return err
		}
		_, err = db.engine.Execute(q)
		return err
	case wal.TypeRule:
		return db.DefineView(string(r.Payload))
	case wal.TypeClause:
		return db.DefineProgram(string(r.Payload))
	case wal.TypeDDL:
		var rec wal.DDLRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			return err
		}
		switch rec.Op {
		case "create-db":
			return db.cat.CreateDatabase(rec.DB)
		case "drop-db":
			return db.cat.DropDatabase(rec.DB)
		case "create-rel":
			return db.cat.CreateRelation(rec.DB, rec.Rel)
		case "drop-rel":
			return db.cat.DropRelation(rec.DB, rec.Rel)
		case "insert":
			tuples := make([]*Tuple, 0, len(rec.Tuples))
			for _, raw := range rec.Tuples {
				v, err := object.UnmarshalJSON(raw)
				if err != nil {
					return err
				}
				t, ok := v.(*Tuple)
				if !ok {
					return fmt.Errorf("inserted element is %T, not a tuple", v)
				}
				tuples = append(tuples, t)
			}
			_, err := db.cat.Insert(rec.DB, rec.Rel, tuples...)
			return err
		}
		return fmt.Errorf("unknown ddl op %q", rec.Op)
	case wal.TypeMemberSnap:
		var rec wal.MemberSnapRecord
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			return err
		}
		// The member itself is not remounted — recovery must not depend on
		// it being reachable. Its last logged snapshot is installed as
		// plain data; a later Mount + sync supersedes it.
		if rec.Snap == nil {
			db.engine.UpdateBase(func(base *Tuple) bool {
				return base.Delete(rec.Name)
			})
			return nil
		}
		v, err := object.UnmarshalJSON(rec.Snap)
		if err != nil {
			return err
		}
		snap, ok := v.(*Tuple)
		if !ok {
			return fmt.Errorf("member snapshot is %T, not a tuple", v)
		}
		db.engine.UpdateBase(func(base *Tuple) bool {
			base.Put(rec.Name, snap)
			return true
		})
		return nil
	case wal.TypeCheckpoint:
		return nil
	}
	return fmt.Errorf("unknown record type %d", r.Type)
}

// walAppend logs one committed mutation (no-op without a WAL), returning
// the assigned LSN. An append failure means memory is ahead of the log:
// the log is now poisoned and the error propagates to the caller, who
// must treat the store as failed.
func (db *DB) walAppend(typ byte, payload []byte) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.Append(typ, payload)
}

// walAppendTraced is walAppend under a "wal.commit" span when the
// statement runs traced (tracer non-nil): the span carries the record
// type, the assigned LSN, and the caller's trace ID from ctx, so a
// commit can be joined to the query that caused it and to the physical
// log offline.
func (db *DB) walAppendTraced(ctx context.Context, tracer *obs.Tracer, typ byte, payload []byte) error {
	if tracer == nil || db.wal == nil {
		_, err := db.walAppend(typ, payload)
		return err
	}
	span := tracer.Start("wal.commit")
	span.SetStr("type", wal.TypeName(typ))
	if tid := qlog.TraceID(ctx); tid != "" {
		span.SetStr("trace", tid)
	}
	lsn, err := db.walAppend(typ, payload)
	span.SetInt("lsn", int64(lsn))
	if err != nil {
		span.SetStr("err", err.Error())
	}
	span.End()
	return err
}

// Checkpoint snapshots the current state (universe, view rules, update
// programs) into the WAL directory and truncates the log's sealed
// segments: recovery cost becomes proportional to the work since the
// checkpoint, not since the beginning. Returns the checkpoint's covered
// LSN.
func (db *DB) Checkpoint() (uint64, error) {
	if db.wal == nil {
		return 0, fmt.Errorf("idl: no write-ahead log attached (open with OpenWAL)")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// The commit lock keeps the snapshot out of any statement's critical
	// section (DB.commit): a checkpoint taken between a mutation's apply
	// and its append would contain the mutation, and recovery would then
	// replay its record on top of it. db.mu comes first, as in a member
	// sync, which takes the commit lock to install snapshots.
	db.walCommit.Lock()
	defer db.walCommit.Unlock()
	rules := db.Views()
	clauses := make([]string, 0)
	for _, c := range db.engine.Clauses() {
		clauses = append(clauses, c.String())
	}
	var lsn uint64
	var err error
	// The snapshot reads the base universe under the engine mutex, so it
	// is coherent with concurrent queries and syncs.
	db.engine.UpdateBase(func(base *Tuple) bool {
		lsn, err = db.wal.Checkpoint(base, rules, clauses)
		return false
	})
	db.rec.Emit(qlog.KindCheckpoint, fmt.Sprintf("lsn=%d", lsn), err)
	return lsn, err
}

// WALStatus describes the attached write-ahead log.
type WALStatus struct {
	Dir           string
	Durability    Durability
	NextLSN       uint64
	Appended      uint64 // records appended by this process
	Segments      int
	CheckpointLSN uint64
	Checkpoints   int // checkpoints taken by this process
	Err           error

	// Durability instrumentation (live native counters, present even
	// without a metrics registry; see also the wal.* registry metrics).
	CheckpointLag  uint64        // records appended since the last checkpoint
	Fsyncs         uint64        // fsyncs issued by this process
	FsyncTotal     time.Duration // total time spent in fsync
	BytesAppended  int64         // record bytes appended by this process
	Recovery       time.Duration // startup scan + logical replay
	TruncatedTails uint64        // torn tails repaired at startup

	// Incremental-checkpoint accounting for the newest checkpoint this
	// process took: bytes actually written (manifest plus new relation
	// segments) vs. the checkpoint's full footprint (manifest plus every
	// referenced segment), and the written/reused segment split. The
	// wrote÷total ratio is what segment reuse saved — near 1.0 on the
	// first checkpoint, small after a narrow update.
	CheckpointWroteBytes  int64
	CheckpointTotalBytes  int64
	CheckpointSegsWritten int
	CheckpointSegsReused  int
}

func (s WALStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: dir=%s durability=%s next-lsn=%d appended=%d segments=%d checkpoint-lsn=%d checkpoints=%d",
		s.Dir, s.Durability, s.NextLSN, s.Appended, s.Segments, s.CheckpointLSN, s.Checkpoints)
	if s.CheckpointTotalBytes > 0 {
		fmt.Fprintf(&b, " ckpt-wrote=%d/%d (segs %d new, %d reused)",
			s.CheckpointWroteBytes, s.CheckpointTotalBytes,
			s.CheckpointSegsWritten, s.CheckpointSegsReused)
	}
	if s.Err != nil {
		fmt.Fprintf(&b, " ERROR=%v", s.Err)
	}
	return b.String()
}

// WALStatus reports the attached log's state; ok is false on a DB opened
// without a WAL.
func (db *DB) WALStatus() (WALStatus, bool) {
	if db.wal == nil {
		return WALStatus{}, false
	}
	st := db.wal.Status()
	return WALStatus{
		Dir:            st.Dir,
		Durability:     db.walDurability,
		NextLSN:        st.NextLSN,
		Appended:       st.Appended,
		Segments:       st.Segments,
		CheckpointLSN:  st.CheckpointLSN,
		Checkpoints:    st.Checkpoints,
		Err:            st.Err,
		CheckpointLag:  st.CheckpointLag,
		Fsyncs:         st.Fsyncs,
		FsyncTotal:     time.Duration(st.FsyncNanos),
		BytesAppended:  st.BytesAppended,
		Recovery:       time.Duration(st.RecoveryNS + st.ReplayNS),
		TruncatedTails: st.TruncatedTails,

		CheckpointWroteBytes:  st.CheckpointWroteBytes,
		CheckpointTotalBytes:  st.CheckpointTotalBytes,
		CheckpointSegsWritten: st.CheckpointSegsWritten,
		CheckpointSegsReused:  st.CheckpointSegsReused,
	}, true
}

// Close releases the durability layer: deferred WAL records are synced
// and the active segment is closed. A DB opened without a WAL closes to
// nil. The DB must not be used after Close.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}
