package idl

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idl/internal/object"
	"idl/internal/wal"
)

// Crash-point recovery tests (DESIGN.md §13): a generated workload of
// committed mutations runs against a WAL-backed DB whose filesystem is a
// FaultFS that crashes — short-writes, fails fsync, or dies — at the Nth
// operation. After every injected crash, recovery through the real
// filesystem must restore a state byte-identical to replaying some
// prefix of the committed mutations (the prefix-consistency oracle); in
// sync mode the prefix must cover at least every acknowledged mutation.
// The grid enumerates every write and fsync index rather than sampling.

// mutStep is one logical mutation of the recovery workload.
type mutStep struct {
	desc  string
	apply func(db *DB) error
}

// recoveryWorkload exercises every WAL record type: catalog DDL and bulk
// inserts, exec statements, rule and clause registrations, a program
// call, and federated member-snapshot installs and removals.
func recoveryWorkload() []mutStep {
	member := func() Source {
		return NewMemorySource("mem1", Tup("quotes", SetOf(
			Tup("date", Date(85, 3, 1), "clsPrice", 11),
			Tup("date", Date(85, 3, 2), "clsPrice", 12),
		)))
	}
	return []mutStep{
		{"insert-euter", func(db *DB) error {
			_, err := db.Catalog().Insert("euter", "r",
				Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50),
				Tup("date", Date(85, 3, 2), "stkCode", "hp", "clsPrice", 55),
				Tup("date", Date(85, 3, 1), "stkCode", "ibm", "clsPrice", 140))
			return err
		}},
		{"rule-unified", func(db *DB) error {
			return db.DefineView(".dbI.p(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
		}},
		{"exec-insert", func(db *DB) error {
			_, err := db.Exec("?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80)")
			return err
		}},
		{"create-rel", func(db *DB) error {
			return db.Catalog().CreateRelation("euter", "empty")
		}},
		{"clause-program", func(db *DB) error {
			return db.DefineProgram(".dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P)")
		}},
		{"call-program", func(db *DB) error {
			_, err := db.Call("dbU", "insStk", map[string]any{"S": "nec", "D": Date(85, 3, 4), "P": 95})
			return err
		}},
		{"mount-sync", func(db *DB) error {
			if err := db.Mount("mem1", member()); err != nil {
				return err
			}
			_, err := db.Sync(context.Background())
			return err
		}},
		{"exec-delete", func(db *DB) error {
			_, err := db.Exec("?.euter.r-(.stkCode=hp,.date=3/1/85)")
			return err
		}},
		{"unmount", func(db *DB) error {
			return db.Unmount("mem1")
		}},
		{"create-db", func(db *DB) error {
			return db.Catalog().CreateDatabase("scratch")
		}},
		{"insert-scratch", func(db *DB) error {
			_, err := db.Catalog().Insert("scratch", "t", Tup("k", 1), Tup("k", 2))
			return err
		}},
		{"drop-rel", func(db *DB) error {
			return db.Catalog().DropRelation("euter", "empty")
		}},
		{"drop-db", func(db *DB) error {
			return db.Catalog().DropDatabase("scratch")
		}},
	}
}

// stateDigest renders everything recovery must restore — the base
// universe (in insertion order, which MarshalJSON preserves), the view
// rules, and the program clauses — as one byte-comparable string.
func stateDigest(t testing.TB, db *DB) string {
	t.Helper()
	raw, err := object.MarshalJSON(db.Engine().Base())
	if err != nil {
		t.Fatalf("marshal universe: %v", err)
	}
	var clauses []string
	for _, c := range db.Engine().Clauses() {
		clauses = append(clauses, c.String())
	}
	return string(raw) +
		"\n--views--\n" + strings.Join(db.Views(), "\n") +
		"\n--clauses--\n" + strings.Join(clauses, "\n")
}

// recoveryReference runs the workload cleanly once and derives the
// oracle: the committed WAL records in order, the cumulative record
// count at the end of each step, and the reference digest after
// replaying each record prefix (states[j] = fresh DB + records[:j]).
type recoveryRef struct {
	records     []wal.Record
	stepRecords []uint64 // cumulative records appended after step i
	states      []string // len(records)+1 prefix digests
	writes      int      // FS write ops the clean run issued
	syncs       int      // FS fsync ops the clean run issued
}

func buildRecoveryReference(t testing.TB, steps []mutStep) *recoveryRef {
	t.Helper()
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS(), wal.FaultPlan{})
	db, _, err := openWALFS(dir, WALOptions{Durability: DurabilitySync}, ffs)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	ref := &recoveryRef{}
	for _, s := range steps {
		if err := s.apply(db); err != nil {
			t.Fatalf("clean run %s: %v", s.desc, err)
		}
		st, _ := db.WALStatus()
		ref.stepRecords = append(ref.stepRecords, st.Appended)
	}
	cleanDigest := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	ref.writes, ref.syncs = ffs.Writes(), ffs.Syncs()

	// The committed record sequence, read back through recovery itself
	// (no checkpoint was taken, so the tail is the whole history).
	log, recovered, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("read back records: %v", err)
	}
	log.Close()
	if recovered.Truncated {
		t.Fatal("clean run left a torn tail")
	}
	ref.records = recovered.Tail

	// Prefix states, built by replaying record prefixes onto a plain DB.
	rdb := Open()
	ref.states = append(ref.states, stateDigest(t, rdb))
	for _, r := range ref.records {
		if err := rdb.replayRecord(r); err != nil {
			t.Fatalf("reference replay lsn %d: %v", r.LSN, err)
		}
		ref.states = append(ref.states, stateDigest(t, rdb))
	}

	// Replay determinism: the full-record replay must reproduce the
	// original run's state exactly — this anchors the per-record
	// reference states to the original execution semantics.
	if got := ref.states[len(ref.states)-1]; got != cleanDigest {
		t.Fatalf("replaying all %d records diverges from the original run:\n got %s\nwant %s",
			len(ref.records), got, cleanDigest)
	}

	// And so must the original semantics applied directly, WAL-free.
	plain := Open()
	for _, s := range steps {
		if err := s.apply(plain); err != nil {
			t.Fatalf("plain run %s: %v", s.desc, err)
		}
	}
	if got := stateDigest(t, plain); got != cleanDigest {
		t.Fatalf("WAL-backed run diverges from plain run:\n got %s\nwant %s", cleanDigest, got)
	}
	return ref
}

// runCrashPoint executes the workload under the fault plan, then
// recovers through the real filesystem and checks the oracle. Returns a
// description of the matched prefix for logging.
// The optional ckptAfter indices take an (incremental) checkpoint after
// those steps, so crashes can land inside segment writes, manifest
// installs, or segment GC; a checkpoint never changes logical state, so
// the oracle is unchanged.
func runCrashPoint(t testing.TB, steps []mutStep, ref *recoveryRef, plan wal.FaultPlan, mode Durability, ckptAfter ...int) {
	t.Helper()
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS(), plan)
	ckptAt := make(map[int]bool, len(ckptAfter))
	for _, i := range ckptAfter {
		ckptAt[i] = true
	}
	ackedSteps := 0
	db, _, err := openWALFS(dir, WALOptions{Durability: mode}, ffs)
	if err == nil {
		for i, s := range steps {
			if err := s.apply(db); err != nil {
				break // the crash surfaced; everything after must fail too
			}
			ackedSteps++
			if ckptAt[i] {
				if _, err := db.Checkpoint(); err != nil {
					break // crashed inside the checkpoint; log is poisoned
				}
			}
		}
		db.Close()
	}

	rdb, report, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("%+v: recovery failed: %v", plan, err)
	}
	defer rdb.Close()
	got := stateDigest(t, rdb)

	// In sync mode every record of an acknowledged step was fsynced
	// before the ack, so the recovered prefix must cover them all. In
	// group/off modes acknowledged records may be lost: any prefix is
	// consistent.
	lower := 0
	if mode == DurabilitySync && ackedSteps > 0 {
		lower = int(ref.stepRecords[ackedSteps-1])
	}
	for j := lower; j <= len(ref.records); j++ {
		if got == ref.states[j] {
			return
		}
	}
	t.Fatalf("%+v mode=%s: recovered state matches no committed prefix >= %d (acked steps %d, report %s)\nrecovered: %s",
		plan, mode, lower, ackedSteps, report, got)
}

// TestCrashPointGrid enumerates every write index (with three tear
// shapes) and every fsync index of the workload, in sync and group
// modes. Short mode strides the write grid.
func TestCrashPointGrid(t *testing.T) {
	steps := recoveryWorkload()
	ref := buildRecoveryReference(t, steps)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	t.Run("write-crashes", func(t *testing.T) {
		for w := 1; w <= ref.writes; w += stride {
			for _, short := range []int{0, 5, 1 << 20} {
				runCrashPoint(t, steps, ref, wal.FaultPlan{CrashAtWrite: w, ShortBytes: short}, DurabilitySync)
			}
		}
	})
	t.Run("sync-crashes", func(t *testing.T) {
		for sy := 1; sy <= ref.syncs; sy += stride {
			runCrashPoint(t, steps, ref, wal.FaultPlan{CrashAtSync: sy}, DurabilitySync)
		}
	})
	t.Run("sync-failures", func(t *testing.T) {
		// Transient fsync failure: no crash, but the log must refuse
		// further appends and recovery must still be prefix-consistent.
		for sy := 1; sy <= ref.syncs; sy += stride {
			runCrashPoint(t, steps, ref, wal.FaultPlan{FailSyncAt: sy}, DurabilitySync)
		}
	})
	t.Run("group-commit-crashes", func(t *testing.T) {
		// Group mode defers fsync, so far fewer sync ops exist; crash on
		// writes and verify the weaker (lower bound 0) oracle.
		for w := 1; w <= ref.writes; w += stride {
			runCrashPoint(t, steps, ref, wal.FaultPlan{CrashAtWrite: w, ShortBytes: 3}, DurabilityGroup)
		}
	})
}

// TestRecoveryRoundTrip is the no-fault case: close cleanly, reopen,
// byte-compare, then keep working and recover again.
func TestRecoveryRoundTrip(t *testing.T) {
	steps := recoveryWorkload()
	dir := t.TempDir()
	db, report, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed != 0 || report.CheckpointLSN != 0 {
		t.Fatalf("fresh dir recovered %s", report)
	}
	for _, s := range steps {
		if err := s.apply(db); err != nil {
			t.Fatalf("%s: %v", s.desc, err)
		}
	}
	want := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, report, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Replayed == 0 {
		t.Fatalf("nothing replayed: %s", report)
	}
	if got := stateDigest(t, db2); got != want {
		t.Fatalf("recovered state diverges:\n got %s\nwant %s", got, want)
	}
	// The recovered DB keeps working and those mutations recover too.
	if _, err := db2.Exec("?.euter.r+(.date=3/5/85,.stkCode=hp,.clsPrice=61)"); err != nil {
		t.Fatal(err)
	}
	want = stateDigest(t, db2)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := stateDigest(t, db3); got != want {
		t.Fatalf("second recovery diverges:\n got %s\nwant %s", got, want)
	}
}

// gateFS parks the first WAL write issued after arm until release is
// closed — the seam that holds one commit between its apply and the end
// of its append while another commit is attempted.
type gateFS struct {
	wal.FS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (g *gateFS) Create(path string) (wal.File, error) {
	f, err := g.FS.Create(path)
	return &gateFile{f, g}, err
}

func (g *gateFS) Append(path string) (wal.File, error) {
	f, err := g.FS.Append(path)
	return &gateFile{f, g}, err
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.parked)
		<-f.g.release
	}
	return f.File.Write(p)
}

// TestWALOrderCatalogDDL: a catalog mutation and an update request that
// race must reach the log in the order they applied, or recovery replays
// them the other way round — here, a bulk Insert followed by an Exec
// deleting the inserted tuple would recover with the tuple resurrected.
// The Insert's append is parked; until it completes, the Exec must not
// have applied (apply + append are one critical section of one commit
// lock), and afterwards the recovered universe must equal the live one.
func TestWALOrderCatalogDDL(t *testing.T) {
	dir := t.TempDir()
	gate := &gateFS{FS: wal.OSFS(), parked: make(chan struct{}), release: make(chan struct{})}
	db, _, err := openWALFS(dir, WALOptions{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Catalog().Insert("euter", "r", Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50)); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	inserted, deleted := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := db.Catalog().Insert("euter", "r", Tup("date", Date(85, 3, 2), "stkCode", "dec", "clsPrice", 80))
		inserted <- err
	}()
	<-gate.parked // the tuple is in memory; its log record is not yet written
	go func() {
		_, err := db.Exec("?.euter.r-(.stkCode=dec)")
		deleted <- err
	}()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		res, err := db.Query("?.euter.r(.stkCode=dec, .clsPrice=P)")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Error("the delete applied while the insert's append was parked: its record can reach the log first")
			break
		}
	}
	close(gate.release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}

	want := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := stateDigest(t, db2); got != want {
		t.Errorf("recovered state diverges from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointWaitsForCommit: a checkpoint must not snapshot the
// universe inside another statement's commit — between its apply and its
// append the mutation is in memory but not in the log, so a checkpoint
// taken there would contain it and recovery would replay its record on
// top (here: a price raised by 10 twice). The request's append is
// parked; until it completes, the checkpoint must wait on the commit
// lock, before reading the engine — so the engine stays free — and
// afterwards the recovered universe must equal the live one.
func TestCheckpointWaitsForCommit(t *testing.T) {
	dir := t.TempDir()
	gate := &gateFS{FS: wal.OSFS(), parked: make(chan struct{}), release: make(chan struct{})}
	db, _, err := openWALFS(dir, WALOptions{}, gate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Catalog().Insert("euter", "r", Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50)); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	raised, checkpointed := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := db.Exec("?.euter.r(.stkCode=hp, .clsPrice=C), .euter.r-(.stkCode=hp), .euter.r+(.date=3/1/85, .stkCode=hp, .clsPrice=C+10)")
		raised <- err
	}()
	<-gate.parked // the raise is applied; its log record is not yet written
	go func() {
		_, err := db.Checkpoint()
		checkpointed <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the checkpoint reach whatever it blocks on
	probe := make(chan struct{})
	go func() {
		db.Engine().UpdateBase(func(*Tuple) bool { return false })
		close(probe)
	}()
	select {
	case <-probe:
	case <-time.After(time.Second):
		t.Error("the checkpoint entered the engine inside another statement's commit: its snapshot can hold an unlogged mutation")
	}
	select {
	case err := <-checkpointed:
		t.Errorf("the checkpoint completed inside another statement's commit (err %v)", err)
	default:
	}
	close(gate.release)
	if err := <-raised; err != nil {
		t.Fatal(err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	<-probe

	want := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := stateDigest(t, db2); got != want {
		t.Errorf("recovered state diverges from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointRecovery verifies recovery from checkpoint + tail and
// that crashes inside the checkpoint itself fall back cleanly.
func TestCheckpointRecovery(t *testing.T) {
	steps := recoveryWorkload()
	t.Run("checkpoint-plus-tail", func(t *testing.T) {
		dir := t.TempDir()
		db, _, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mid := len(steps) / 2
		for _, s := range steps[:mid] {
			if err := s.apply(db); err != nil {
				t.Fatalf("%s: %v", s.desc, err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, s := range steps[mid:] {
			if err := s.apply(db); err != nil {
				t.Fatalf("%s: %v", s.desc, err)
			}
		}
		want := stateDigest(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, report, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if report.CheckpointLSN == 0 {
			t.Fatalf("recovery ignored the checkpoint: %s", report)
		}
		if got := stateDigest(t, db2); got != want {
			t.Fatalf("checkpoint recovery diverges:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("crash-during-checkpoint", func(t *testing.T) {
		// Probe how many FS ops a checkpoint costs, then crash at each.
		probeDir := t.TempDir()
		probeFS := wal.NewFaultFS(wal.OSFS(), wal.FaultPlan{})
		db, _, err := openWALFS(probeDir, WALOptions{}, probeFS)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps[:4] {
			if err := s.apply(db); err != nil {
				t.Fatal(err)
			}
		}
		preWrites, preSyncs := probeFS.Writes(), probeFS.Syncs()
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckWrites, ckSyncs := probeFS.Writes()-preWrites, probeFS.Syncs()-preSyncs
		db.Close()

		for w := 1; w <= ckWrites; w++ {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(wal.OSFS(), wal.FaultPlan{CrashAtWrite: preWrites + w, ShortBytes: 9})
			db, _, err := openWALFS(dir, WALOptions{}, ffs)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps[:4] {
				if err := s.apply(db); err != nil {
					t.Fatalf("workload must precede the checkpoint crash: %v", err)
				}
			}
			want := stateDigest(t, db)
			db.Checkpoint() // crashes somewhere inside
			db.Close()
			rdb, _, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatalf("ckpt write %d: recovery failed: %v", w, err)
			}
			if got := stateDigest(t, rdb); got != want {
				t.Fatalf("ckpt write %d: recovered state diverges:\n got %s\nwant %s", w, got, want)
			}
			rdb.Close()
		}
		for sy := 1; sy <= ckSyncs; sy++ {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(wal.OSFS(), wal.FaultPlan{CrashAtSync: preSyncs + sy})
			db, _, err := openWALFS(dir, WALOptions{}, ffs)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps[:4] {
				if err := s.apply(db); err != nil {
					t.Fatalf("workload must precede the checkpoint crash: %v", err)
				}
			}
			want := stateDigest(t, db)
			db.Checkpoint()
			db.Close()
			rdb, _, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatalf("ckpt sync %d: recovery failed: %v", sy, err)
			}
			if got := stateDigest(t, rdb); got != want {
				t.Fatalf("ckpt sync %d: recovered state diverges:\n got %s\nwant %s", sy, got, want)
			}
			rdb.Close()
		}
	})
}

// TestWALPoisonAfterAppendFailure pins the commit protocol: once an
// append fails, the in-memory state is ahead of the log, so every later
// mutation must be refused rather than widen the divergence.
func TestWALPoisonAfterAppendFailure(t *testing.T) {
	dir := t.TempDir()
	// Write budget: 1 segment header, then the seed insert's three DDL
	// records (create-db, create-rel, insert), then one exec record per
	// acknowledged statement. Crash the 6th write: the seed and the first
	// exec commit, the second exec's append dies.
	ffs := wal.NewFaultFS(wal.OSFS(), wal.FaultPlan{CrashAtWrite: 6})
	db, _, err := openWALFS(dir, WALOptions{}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Catalog().Insert("euter", "r",
		Tup("date", Date(85, 3, 1), "stkCode", "seed", "clsPrice", 1)); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
	var firstErr error
	for i := 0; i < 8; i++ {
		_, err := db.Exec(fmt.Sprintf("?.euter.r+(.date=3/1/85,.stkCode=s%d,.clsPrice=%d)", i, 10+i))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil && firstErr != nil {
			t.Fatalf("exec %d acknowledged after append failure %v", i, firstErr)
		}
	}
	if firstErr == nil {
		t.Fatal("no exec failed despite the injected crash")
	}
	if st, ok := db.WALStatus(); !ok || st.Err == nil {
		t.Fatalf("WAL status does not surface the sticky error: %+v ok=%v", st, ok)
	}
	// DDL paths are poisoned too.
	if err := db.Catalog().CreateDatabase("late"); err == nil {
		t.Fatal("DDL acknowledged after append failure")
	}
}

// TestDifferentialRecovery wires durability into the differential
// harness: every experiment's transcript must be byte-identical with the
// WAL on, and the state a crashless close leaves behind must recover
// byte-identically.
func TestDifferentialRecovery(t *testing.T) {
	for _, exp := range diffExperiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			plain := diffOpen(diffMode(diffReference), 0)
			diffFixture(t, plain)
			if exp.setup != nil {
				exp.setup(t, plain)
			}
			want := diffTranscript(t, plain, exp.stmts)

			dir := t.TempDir()
			opts := DefaultOptions()
			diffMode(diffReference)(&opts)
			db, _, err := OpenWAL(dir, WALOptions{Engine: &opts})
			if err != nil {
				t.Fatal(err)
			}
			diffFixture(t, db)
			if exp.setup != nil {
				exp.setup(t, db)
			}
			got := diffTranscript(t, db, exp.stmts)
			diffCompare(t, exp.name+" wal-on", want, got)
			wantState := stateDigest(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			rdb, _, err := OpenWAL(dir, WALOptions{Engine: &opts})
			if err != nil {
				t.Fatal(err)
			}
			defer rdb.Close()
			if gotState := stateDigest(t, rdb); gotState != wantState {
				t.Fatalf("%s: recovered state diverges:\n got %s\nwant %s", exp.name, gotState, wantState)
			}
		})
	}
}

// fuzzWorkload derives a deterministic mutation sequence from a seed —
// a little LCG walk over inserts, deletes, DDL and registrations.
func fuzzWorkload(seed uint64) []mutStep {
	rng := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*2862933555777941757 + 3037000493
		return int((rng >> 33) % uint64(n))
	}
	nSteps := 4 + next(6)
	// Every workload seeds euter.r first: exec statements need the
	// relation to exist.
	steps := []mutStep{{"seed", func(db *DB) error {
		_, err := db.Catalog().Insert("euter", "r",
			Tup("date", Date(85, 3, 1), "stkCode", "seed", "clsPrice", 1))
		return err
	}}}
	for i := 0; i < nSteps; i++ {
		switch next(6) {
		case 0:
			stk := fmt.Sprintf("s%d", next(5))
			price := 10 + next(90)
			day := 1 + next(28)
			steps = append(steps, mutStep{"insert", func(db *DB) error {
				_, err := db.Catalog().Insert("euter", "r",
					Tup("date", Date(85, 3, day), "stkCode", stk, "clsPrice", price))
				return err
			}})
		case 1:
			stk := fmt.Sprintf("s%d", next(5))
			price := 10 + next(90)
			day := 1 + next(28)
			steps = append(steps, mutStep{"exec-insert", func(db *DB) error {
				_, err := db.Exec(fmt.Sprintf("?.euter.r+(.date=3/%d/85,.stkCode=%s,.clsPrice=%d)", day, stk, price))
				return err
			}})
		case 2:
			stk := fmt.Sprintf("s%d", next(5))
			steps = append(steps, mutStep{"exec-delete", func(db *DB) error {
				_, err := db.Exec(fmt.Sprintf("?.euter.r-(.stkCode=%s)", stk))
				return err
			}})
		case 3:
			rel := fmt.Sprintf("t%d", i)
			steps = append(steps, mutStep{"create-rel", func(db *DB) error {
				_, err := db.Catalog().Insert("scratch", rel, Tup("k", i))
				return err
			}})
		case 4:
			view := fmt.Sprintf("v%d", i)
			steps = append(steps, mutStep{"rule", func(db *DB) error {
				return db.DefineView(fmt.Sprintf(".dbI.%s(.stk=S) <- .euter.r(.stkCode=S)", view))
			}})
		case 5:
			prog := fmt.Sprintf("p%d", i)
			steps = append(steps, mutStep{"clause", func(db *DB) error {
				return db.DefineProgram(fmt.Sprintf(".dbU.%s(.stk=S) -> .euter.r-(.stkCode=S)", prog))
			}})
		}
	}
	return steps
}

// FuzzRecovery fuzzes the prefix-consistency oracle: an arbitrary
// seeded workload, an arbitrary crash point, and a recovered state that
// must equal some committed prefix.
func FuzzRecovery(f *testing.F) {
	f.Add(uint64(1), uint16(3), uint8(0), false)
	f.Add(uint64(7), uint16(9), uint8(5), false)
	f.Add(uint64(42), uint16(1), uint8(255), true)
	f.Add(uint64(99), uint16(30), uint8(16), false)
	f.Fuzz(func(t *testing.T, seed uint64, crashOp uint16, short uint8, crashSync bool) {
		steps := fuzzWorkload(seed)
		ref := buildRecoveryReference(t, steps)
		plan := wal.FaultPlan{}
		if crashSync {
			if ref.syncs == 0 {
				t.Skip("workload issued no fsyncs")
			}
			plan.CrashAtSync = 1 + int(crashOp)%ref.syncs
		} else {
			plan.CrashAtWrite = 1 + int(crashOp)%ref.writes
			plan.ShortBytes = int(short)
		}
		runCrashPoint(t, steps, ref, plan, DurabilitySync)
	})
}

// FuzzCheckpointRecovery fuzzes the incremental-checkpoint crash
// surface: a seeded workload with checkpoints interleaved at arbitrary
// steps, and a crash point that can land inside relation-segment writes,
// the manifest install, segment GC, or the post-checkpoint tail. The
// recovered state must still equal a committed prefix covering every
// acknowledged step.
func FuzzCheckpointRecovery(f *testing.F) {
	f.Add(uint64(1), uint16(3), uint8(0), false, uint8(0))
	f.Add(uint64(7), uint16(40), uint8(5), false, uint8(2))
	f.Add(uint64(42), uint16(80), uint8(255), true, uint8(1))
	f.Add(uint64(99), uint16(120), uint8(16), false, uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, crashOp uint16, short uint8, crashSync bool, ckptAt uint8) {
		steps := fuzzWorkload(seed)
		ref := buildRecoveryReference(t, steps)
		// Checkpoint after two workload-dependent steps; checkpoints cost
		// extra FS ops, so let the crash index range well past the clean
		// run's op counts (indices beyond the run simply never fire).
		ck1 := int(ckptAt) % len(steps)
		ck2 := (int(ckptAt) + 1 + len(steps)/2) % len(steps)
		plan := wal.FaultPlan{}
		if crashSync {
			if ref.syncs == 0 {
				t.Skip("workload issued no fsyncs")
			}
			plan.CrashAtSync = 1 + int(crashOp)%(4*ref.syncs)
		} else {
			plan.CrashAtWrite = 1 + int(crashOp)%(4*ref.writes)
			plan.ShortBytes = int(short)
		}
		runCrashPoint(t, steps, ref, plan, DurabilitySync, ck1, ck2)
	})
}
