// Package wal is the engine's durability layer: an append-only,
// segmented write-ahead log of committed logical mutations — update
// requests, DDL, rule and clause registrations, federated member
// snapshot installs; the same event set that bumps the catalog epoch —
// plus incremental checkpoints and redo recovery.
//
// Records are length-prefixed, CRC-checksummed and LSN-stamped
// (record.go). The log is redo-only: mutations apply in memory first and
// append on commit, so recovery is "load the newest good checkpoint,
// replay the tail". A crash mid-append leaves a torn trailing record;
// recovery truncates the log at the first checksum failure and reports
// it. Checkpoints are incremental: each relation set is written to its
// own rel-*.ckseg file (through the storage/object tagged-JSON codecs),
// unchanged relations keep their segment file from the previous
// checkpoint, and the ckpt-*.ckpt manifest carries only the universe
// skeleton plus the segment references. Recovery composes manifest +
// segments, verifying every checksum; sealed log segments older than a
// checkpoint are deleted — the same bounded-retention discipline the
// federation layer applies to history.
//
// All writes go through the FS seam (fs.go) so crash-point fault
// injection (faults.go) can short-write, fail fsync, or kill the "disk"
// at the Nth operation; the recovery tests in the root package drive a
// full crash grid against a prefix-consistency oracle.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/storage"
)

// segMagic starts every segment file, followed by the segment's first
// LSN as 8 little-endian bytes.
const segMagic = "IDLWAL1\n"

// segHeaderLen is the segment header size.
const segHeaderLen = len(segMagic) + 8

// SyncMode is the append-time durability policy.
type SyncMode int

const (
	// SyncAlways fsyncs after every append: an acknowledged commit is on
	// disk. The durable default.
	SyncAlways SyncMode = iota
	// SyncGroup fsyncs when GroupBytes of unsynced records accumulate
	// (and on rotate, checkpoint and close) — group commit: the fsync
	// cost amortizes over the batch, at the price of losing the unsynced
	// suffix in a crash.
	SyncGroup
	// SyncNever leaves fsync to rotations, checkpoints and Close. For
	// benchmarking the no-durability floor; a crash loses the OS-buffered
	// tail.
	SyncNever
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("mode%d", int(m))
}

// Options tune the log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB).
	SegmentBytes int64
	// Mode is the append-time fsync policy (default SyncAlways).
	Mode SyncMode
	// GroupBytes is the SyncGroup threshold (default 64 KiB).
	GroupBytes int64
	// KeepCheckpoints bounds checkpoint-file retention: the newest N
	// checkpoint files survive a new checkpoint (default 2, minimum 1).
	KeepCheckpoints int
	// FS is the write-path filesystem (default the process filesystem).
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.GroupBytes <= 0 {
		o.GroupBytes = 64 << 10
	}
	if o.KeepCheckpoints < 1 {
		o.KeepCheckpoints = 2
	}
	if o.FS == nil {
		o.FS = OSFS()
	}
	return o
}

// Log is an open write-ahead log directory. Appends are serialized by an
// internal mutex; a write or fsync failure is sticky — every later
// append returns it, because a log that may have lost a record must not
// acknowledge new ones.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	active     File
	activeName string
	activeSize int64
	sealed     []string // sealed segment file names, oldest first

	nextLSN   uint64
	appended  uint64 // records appended by this Log
	unsynced  int64  // bytes appended since the last fsync
	ckptLSN   uint64 // newest checkpoint's LSN
	ckptCount int    // checkpoints taken by this Log
	err       error  // sticky write failure

	// lastSegs tracks the relation segments referenced by the newest
	// checkpoint, keyed by db+"\x00"+rel. A relation whose set pointer
	// and version are unchanged since then is not rewritten by the next
	// checkpoint — its manifest references the existing segment file.
	// Holding the set pointer keeps the old set alive, so a recycled
	// allocation can never alias a stale (pointer, version) pair. Open
	// leaves the map empty: the first checkpoint after a restart rewrites
	// every relation.
	lastSegs map[string]*segRef

	// Last-checkpoint byte accounting (see Status): what the incremental
	// checkpoint actually wrote vs. what a full snapshot would occupy.
	ckptWroteBytes  int64 // manifest + newly written segment bytes
	ckptTotalBytes  int64 // manifest + every referenced segment's bytes
	ckptSegsWritten int
	ckptSegsReused  int

	// Native instrumentation, surfaced through Status even when no
	// metrics registry is attached.
	unsyncedRecs   uint64 // records appended since the last fsync
	fsyncs         uint64
	fsyncNanos     int64
	bytesAppended  int64 // record bytes appended (excluding headers)
	recoveryNS     int64 // Open's directory scan + tail decode
	replayNS       int64 // caller-reported logical replay (NoteReplay)
	truncatedTails uint64

	m *logMetrics // nil until SetMetrics
}

// logMetrics are the registry instruments the log feeds when a metrics
// registry is attached. All obs types are nil-safe, so a zero value
// works too.
type logMetrics struct {
	fsyncCount *obs.Counter
	fsyncLat   [3]*obs.Histogram // indexed by SyncMode at sync time
	batchRecs  *obs.Histogram    // group-commit batch size (records per fsync)
	appendB    *obs.Counter
	lsn        *obs.Gauge
	segments   *obs.Gauge
	ckptLag    *obs.Gauge // records appended since the last checkpoint
	ckptCount  *obs.Counter
	ckptLat    *obs.Histogram
	replay     *obs.Gauge // recovery scan + replay duration, ns
	truncated  *obs.Counter
}

// SetMetrics attaches a metrics registry: fsync latency split by sync
// policy, group-commit batch sizes, append volume, live LSN / segment /
// checkpoint-lag gauges, and recovery counters. Idempotent per registry;
// current state is pushed immediately so gauges are live from attach.
func (l *Log) SetMetrics(r *obs.Registry) {
	if l == nil || r == nil {
		return
	}
	m := &logMetrics{
		fsyncCount: r.Counter("wal.fsync.count"),
		batchRecs:  r.CountHistogram("wal.fsync.batch_records"),
		appendB:    r.Counter("wal.append.bytes"),
		lsn:        r.Gauge("wal.lsn"),
		segments:   r.Gauge("wal.segments"),
		ckptLag:    r.Gauge("wal.checkpoint.lag_records"),
		ckptCount:  r.Counter("wal.checkpoint.count"),
		ckptLat:    r.Histogram("wal.checkpoint.latency"),
		replay:     r.Gauge("wal.recovery.replay_ns"),
		truncated:  r.Counter("wal.recovery.truncated_tails"),
	}
	for mode := SyncAlways; mode <= SyncNever; mode++ {
		m.fsyncLat[mode] = r.Histogram("wal.fsync.latency." + mode.String())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = m
	m.appendB.Add(uint64(l.bytesAppended))
	m.fsyncCount.Add(l.fsyncs)
	m.truncated.Add(l.truncatedTails)
	m.replay.Set(l.recoveryNS + l.replayNS)
	l.gaugesLocked()
}

// gaugesLocked refreshes the live gauges; callers hold l.mu.
func (l *Log) gaugesLocked() {
	if l.m == nil {
		return
	}
	l.m.lsn.Set(int64(l.nextLSN - 1))
	segs := int64(len(l.sealed))
	if l.active != nil {
		segs++
	}
	l.m.segments.Set(segs)
	l.m.ckptLag.Set(int64(l.nextLSN - 1 - l.ckptLSN))
}

// NoteReplay records the caller's logical replay duration (the redo pass
// over the recovered tail) so recovery cost is visible end to end.
func (l *Log) NoteReplay(d time.Duration) {
	if l == nil || d < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.replayNS += int64(d)
	if l.m != nil {
		l.m.replay.Set(l.recoveryNS + l.replayNS)
	}
}

// Recovered is what Open reconstructed from the directory.
type Recovered struct {
	// CheckpointLSN is the newest good checkpoint's LSN (0 = none).
	CheckpointLSN uint64
	// Universe is the checkpointed universe (nil without a checkpoint).
	Universe *object.Tuple
	// Rules and Clauses are the checkpointed registration sources.
	Rules   []string
	Clauses []string
	// Tail holds the records after the checkpoint, in LSN order, ending
	// at the log's end or at the first corruption.
	Tail []Record
	// Truncated reports that a torn or corrupt trailing record was cut
	// off (the expected shape of a crash mid-append).
	Truncated bool
	// TruncatedSegment names the segment that was repaired.
	TruncatedSegment string
	// SkippedCheckpoints counts corrupt checkpoint files passed over on
	// the way to a good one.
	SkippedCheckpoints int
}

// Open opens (creating if needed) the log directory, recovers its
// contents, repairs any torn tail, and readies the log for appending at
// the next LSN. The returned Recovered carries everything the caller
// needs to rebuild in-memory state: checkpoint universe + rule/clause
// sources, then the tail records to replay.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	names, err := listDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list dir: %w", err)
	}
	rec := &Recovered{}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}

	// Newest good checkpoint wins; corrupt ones are skipped, not fatal —
	// a crash mid-checkpoint must not strand the directory.
	var ckpts []string
	for _, name := range names {
		if strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt") {
			ckpts = append(ckpts, name)
		}
	}
	sort.Strings(ckpts)
	for i := len(ckpts) - 1; i >= 0; i-- {
		ck, err := readCheckpoint(filepath.Join(dir, ckpts[i]))
		if err != nil {
			rec.SkippedCheckpoints++
			continue
		}
		rec.CheckpointLSN = ck.LSN
		rec.Universe = ck.universe
		rec.Rules = ck.Rules
		rec.Clauses = ck.Clauses
		l.ckptLSN = ck.LSN
		l.nextLSN = ck.LSN + 1
		break
	}

	// Replay segments in firstLSN order, keeping records after the
	// checkpoint. Contiguity is enforced: the first gap, torn record or
	// checksum failure ends the recovered prefix; the torn segment is
	// truncated at the last good record and later segments are removed,
	// so the directory converges to exactly the recovered state.
	type seg struct {
		name     string
		firstLSN uint64
	}
	var segs []seg
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.seg", &first); err != nil {
			continue
		}
		segs = append(segs, seg{name, first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	stopped := false
	for i, s := range segs {
		path := filepath.Join(dir, s.name)
		if stopped {
			// Past a torn point: these records are unreachable; drop them
			// so repeat recoveries agree.
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", s.name, err)
		}
		recs, ends, headerOK := parseSegment(data, s.firstLSN)
		// keepEnd is the byte offset up to which the segment's contents
		// survive: cleanly decoded records that are either folded into the
		// checkpoint (stale) or appended to the tail. torn marks anything
		// after it — a partial trailing record, a checksum failure, or an
		// LSN gap — for physical truncation.
		keepEnd := segHeaderLen
		torn := !headerOK
		for idx, r := range recs {
			if r.LSN <= l.ckptLSN {
				keepEnd = ends[idx]
				continue
			}
			if r.LSN != l.nextLSN {
				torn = true
				break
			}
			rec.Tail = append(rec.Tail, r)
			l.nextLSN = r.LSN + 1
			keepEnd = ends[idx]
		}
		if !torn && keepEnd < len(data) {
			torn = true // trailing bytes that failed to decode
		}
		if torn {
			stopped = true
			rec.Truncated = true
			rec.TruncatedSegment = s.name
			if !headerOK {
				// Nothing in the file is trustworthy; repeat recoveries must
				// not keep re-reporting it.
				os.Remove(path)
				continue
			}
			if keepEnd < len(data) {
				os.Truncate(path, int64(keepEnd))
			}
		}
		if keepEnd <= segHeaderLen && len(recs) == 0 && i < len(segs)-1 {
			// Header-only segment in the middle: a crash right after a
			// rotation; nothing to keep.
			os.Remove(path)
			continue
		}
		l.sealed = append(l.sealed, s.name)
	}

	if err := l.startSegment(); err != nil {
		return nil, nil, err
	}
	if rec.Truncated {
		l.truncatedTails++
	}
	l.recoveryNS = int64(time.Since(start))
	return l, rec, nil
}

// parseSegment decodes a segment's cleanly readable prefix. ends[i] is
// the byte offset just past record i; headerOK reports whether the
// segment header (magic + first LSN matching the file name) is valid.
// Decoding stops silently at the first torn record — the caller decides
// what to truncate from the offsets.
func parseSegment(data []byte, firstLSN uint64) (recs []Record, ends []int, headerOK bool) {
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return nil, nil, false
	}
	if binary.LittleEndian.Uint64(data[len(segMagic):segHeaderLen]) != firstLSN {
		return nil, nil, false
	}
	off := segHeaderLen
	for off < len(data) {
		r, n, err := decodeRecord(data[off:])
		if err != nil {
			break
		}
		recs = append(recs, r)
		off += n
		ends = append(ends, off)
	}
	return recs, ends, true
}

// startSegment seals the active segment (if any) and opens a fresh one
// whose first LSN is the log's next LSN.
func (l *Log) startSegment() error {
	if l.active != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return l.fail(fmt.Errorf("wal: close segment: %w", err))
		}
		l.sealed = append(l.sealed, l.activeName)
	}
	name := fmt.Sprintf("wal-%016x.seg", l.nextLSN)
	f, err := l.opts.FS.Create(filepath.Join(l.dir, name))
	if err != nil {
		return l.fail(fmt.Errorf("wal: create segment: %w", err))
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], l.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: write segment header: %w", err))
	}
	l.active, l.activeName, l.activeSize = f, name, int64(segHeaderLen)
	l.unsynced += int64(segHeaderLen)
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("wal: sync dir: %w", err))
	}
	if l.opts.Mode == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// fail records a sticky failure; every later append reports it.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Err returns the sticky write failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Append commits one record: it is stamped with the next LSN, written to
// the active segment, and made durable per the sync mode. The assigned
// LSN is returned.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.activeSize > int64(segHeaderLen) && l.activeSize >= l.opts.SegmentBytes {
		if err := l.startSegment(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	buf := appendRecord(nil, lsn, typ, payload)
	n, err := l.active.Write(buf)
	if err != nil {
		return 0, l.fail(fmt.Errorf("wal: append record %d: %w", lsn, err))
	}
	if n != len(buf) {
		return 0, l.fail(fmt.Errorf("wal: short append of record %d: %d of %d bytes", lsn, n, len(buf)))
	}
	l.activeSize += int64(len(buf))
	l.unsynced += int64(len(buf))
	l.nextLSN++
	l.appended++
	l.unsyncedRecs++
	l.bytesAppended += int64(len(buf))
	if l.m != nil {
		l.m.appendB.Add(uint64(len(buf)))
		l.gaugesLocked()
	}
	switch l.opts.Mode {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncGroup:
		if l.unsynced >= l.opts.GroupBytes {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return lsn, nil
}

// Sync forces any buffered records to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 || l.active == nil {
		return nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	d := time.Since(start)
	l.fsyncs++
	l.fsyncNanos += int64(d)
	if l.m != nil {
		l.m.fsyncCount.Inc()
		mode := l.opts.Mode
		if mode < SyncAlways || mode > SyncNever {
			mode = SyncAlways
		}
		l.m.fsyncLat[mode].Observe(d)
		if l.unsyncedRecs > 0 {
			l.m.batchRecs.ObserveN(int64(l.unsyncedRecs))
		}
	}
	l.unsynced = 0
	l.unsyncedRecs = 0
	return nil
}

// checkpoint is the on-disk checkpoint manifest: a version, a checksum
// over the body, and the body itself — the covered LSN, the rule and
// clause sources, and the universe. Version 1 stores the whole universe
// in Snapshot. Version 2 is incremental: Snapshot holds only the
// universe *skeleton* (databases and relation attributes, with every
// relation set replaced by an empty placeholder) and Segments lists one
// relation-segment file per relation; recovery composes the two.
type checkpoint struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	LSN      uint64          `json:"lsn"`
	Rules    []string        `json:"rules,omitempty"`
	Clauses  []string        `json:"clauses,omitempty"`
	Snapshot json.RawMessage `json:"snapshot"`
	Segments []ckptSeg       `json:"segments,omitempty"`

	universe *object.Tuple `json:"-"`
}

// ckptSeg is one manifest entry referencing a relation-segment file. An
// unchanged relation's entry points at the file written by an earlier
// checkpoint — that reference sharing is what makes checkpoints
// incremental.
type ckptSeg struct {
	DB       string `json:"db"`
	Rel      string `json:"rel"`
	File     string `json:"file"`
	Count    int    `json:"count"`
	Checksum string `json:"checksum"`
}

// segRef is the in-memory side of a ckptSeg: it remembers which live set
// (pointer + mutation version) a segment file captured, so the next
// checkpoint can prove the relation unchanged and reuse the file.
type segRef struct {
	ptr      *object.Set
	version  uint64
	file     string
	count    int
	bytes    int64
	checksum string
}

// ckseg is a relation-segment file: one relation's element set as a
// tagged-JSON object.Set, checksummed independently of any manifest so a
// half-written or recycled file can never be composed into a recovery.
type ckseg struct {
	Format   string          `json:"format"`
	Checksum string          `json:"checksum"`
	DB       string          `json:"db"`
	Rel      string          `json:"rel"`
	Count    int             `json:"count"`
	Set      json.RawMessage `json:"set"`
}

const (
	ckptFormat      = "idlwal-ckpt"
	ckptVersionFull = 1 // whole universe inline (still readable)
	ckptVersionIncr = 2 // skeleton + relation segments
	cksegFormat     = "idlwal-ckseg"
)

func ckptChecksum(lsn uint64, rules, clauses []string, snapshot []byte) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", lsn)
	for _, r := range rules {
		fmt.Fprintf(h, "r%s\n", r)
	}
	for _, c := range clauses {
		fmt.Fprintf(h, "c%s\n", c)
	}
	h.Write(snapshot)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ckptChecksumV2 extends the v1 checksum with the segment references, so
// a manifest paired with the wrong segment file fails validation even
// before the segment's own checksum is consulted.
func ckptChecksumV2(lsn uint64, rules, clauses []string, skeleton []byte, segs []ckptSeg) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", lsn)
	for _, r := range rules {
		fmt.Fprintf(h, "r%s\n", r)
	}
	for _, c := range clauses {
		fmt.Fprintf(h, "c%s\n", c)
	}
	h.Write(skeleton)
	for _, s := range segs {
		fmt.Fprintf(h, "s%s\x00%s\x00%s\x00%d\x00%s\n", s.DB, s.Rel, s.File, s.Count, s.Checksum)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func segChecksum(db, rel string, set []byte) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\n", db, rel)
	h.Write(set)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Checkpoint snapshots the given state as covering every record up to
// the current LSN, installs it atomically, rotates the active segment,
// and drops the sealed segments and stale checkpoints the new one makes
// unnecessary. It returns the checkpoint's covered LSN.
//
// Checkpoints are incremental: each relation set is written to its own
// rel-*.ckseg file, and a relation whose set pointer and mutation
// version are unchanged since the previous checkpoint keeps its existing
// segment file — the new manifest just references it. The manifest
// itself carries only the universe skeleton, so a checkpoint after a
// single-relation update writes that one relation plus a small manifest
// instead of the whole universe. The caller must keep the universe
// unmutated for the duration of the call (the engine serializes
// checkpoints with mutations on its commit path).
func (l *Log) Checkpoint(universe *object.Tuple, rules, clauses []string) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	// Everything appended so far must be durable before the checkpoint
	// can claim to cover it.
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	lsn := l.nextLSN - 1

	// Walk databases depth-2: write a segment per changed relation, reuse
	// references for unchanged ones, and build the skeleton (relation
	// sets replaced by empty placeholders, attribute order preserved).
	skel := object.NewTuple()
	var segs []ckptSeg
	newRefs := make(map[string]*segRef)
	var wrote, total int64
	written, reused := 0, 0
	segIdx := 0
	var segErr error
	universe.Each(func(db string, v object.Object) bool {
		dt, ok := v.(*object.Tuple)
		if !ok {
			skel.Put(db, v)
			return true
		}
		nd := object.NewTuple()
		dt.Each(func(rel string, rv object.Object) bool {
			s, ok := rv.(*object.Set)
			if !ok {
				nd.Put(rel, rv)
				return true
			}
			nd.Put(rel, object.NewSet())
			key := db + "\x00" + rel
			if ref := l.lastSegs[key]; ref != nil && ref.ptr == s && ref.version == s.Version() {
				newRefs[key] = ref
				segs = append(segs, ckptSeg{DB: db, Rel: rel, File: ref.file, Count: ref.count, Checksum: ref.checksum})
				total += ref.bytes
				reused++
				return true
			}
			file := fmt.Sprintf("rel-%016x-%04d.ckseg", lsn, segIdx)
			segIdx++
			n, sum, err := l.writeRelSegment(file, db, rel, s)
			if err != nil {
				segErr = err
				return false
			}
			ref := &segRef{ptr: s, version: s.Version(), file: file, count: s.Len(), bytes: n, checksum: sum}
			newRefs[key] = ref
			segs = append(segs, ckptSeg{DB: db, Rel: rel, File: file, Count: ref.count, Checksum: sum})
			wrote += n
			total += n
			written++
			return true
		})
		skel.Put(db, nd)
		return segErr == nil
	})
	if segErr != nil {
		return 0, l.fail(segErr)
	}
	// Segment files must be durable (contents and directory entries)
	// before any manifest that references them can be installed.
	if written > 0 {
		if err := l.opts.FS.SyncDir(l.dir); err != nil {
			return 0, l.fail(fmt.Errorf("wal: sync dir: %w", err))
		}
	}

	var snap bytes.Buffer
	if err := storage.Save(&snap, skel); err != nil {
		return 0, fmt.Errorf("wal: checkpoint skeleton: %w", err)
	}
	// json.Marshal compacts embedded RawMessage, so the checksum must be
	// computed over the compacted form or it breaks on round-trip.
	var compact bytes.Buffer
	if err := json.Compact(&compact, snap.Bytes()); err != nil {
		return 0, fmt.Errorf("wal: compact checkpoint skeleton: %w", err)
	}
	ck := checkpoint{
		Format:   ckptFormat,
		Version:  ckptVersionIncr,
		Checksum: ckptChecksumV2(lsn, rules, clauses, compact.Bytes(), segs),
		LSN:      lsn,
		Rules:    rules,
		Clauses:  clauses,
		Snapshot: compact.Bytes(),
		Segments: segs,
	}
	raw, err := json.Marshal(&ck)
	if err != nil {
		return 0, fmt.Errorf("wal: encode checkpoint: %w", err)
	}
	name := fmt.Sprintf("ckpt-%016x.ckpt", lsn)
	tmp := filepath.Join(l.dir, fmt.Sprintf(".ckpt-%016x.tmp", lsn))
	f, err := l.opts.FS.Create(tmp)
	if err != nil {
		return 0, l.fail(fmt.Errorf("wal: create checkpoint: %w", err))
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		l.opts.FS.Remove(tmp)
		return 0, l.fail(fmt.Errorf("wal: write checkpoint: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.opts.FS.Remove(tmp)
		return 0, l.fail(fmt.Errorf("wal: sync checkpoint: %w", err))
	}
	if err := f.Close(); err != nil {
		l.opts.FS.Remove(tmp)
		return 0, l.fail(fmt.Errorf("wal: close checkpoint: %w", err))
	}
	if err := l.opts.FS.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		l.opts.FS.Remove(tmp)
		return 0, l.fail(fmt.Errorf("wal: install checkpoint: %w", err))
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		return 0, l.fail(fmt.Errorf("wal: sync dir: %w", err))
	}
	l.ckptLSN = lsn
	l.ckptCount++
	l.lastSegs = newRefs
	l.ckptWroteBytes = wrote + int64(len(raw))
	l.ckptTotalBytes = total + int64(len(raw))
	l.ckptSegsWritten = written
	l.ckptSegsReused = reused
	// The tail restarts in a fresh segment; every sealed segment is now
	// covered by the checkpoint and can go.
	if err := l.startSegment(); err != nil {
		return 0, err
	}
	for _, s := range l.sealed {
		l.opts.FS.Remove(filepath.Join(l.dir, s))
	}
	l.sealed = nil
	// Bounded checkpoint retention: newest KeepCheckpoints survive. A
	// relation segment survives as long as any surviving manifest
	// references it; the rest (including orphans from crashed
	// checkpoints) are garbage-collected.
	if names, err := listDir(l.dir); err == nil {
		var ckpts []string
		for _, n := range names {
			if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
				ckpts = append(ckpts, n)
			}
		}
		sort.Strings(ckpts)
		for len(ckpts) > l.opts.KeepCheckpoints {
			l.opts.FS.Remove(filepath.Join(l.dir, ckpts[0]))
			ckpts = ckpts[1:]
		}
		l.collectSegmentsLocked(names, ckpts)
	}
	// The marker makes the checkpoint visible in the record stream.
	if _, err := l.appendLocked(TypeCheckpoint, []byte(name)); err != nil {
		return 0, err
	}
	if l.m != nil {
		l.m.ckptCount.Inc()
		l.m.ckptLat.Observe(time.Since(start))
		l.gaugesLocked()
	}
	return lsn, nil
}

// writeRelSegment writes one relation's segment file durably and returns
// its size and content checksum.
func (l *Log) writeRelSegment(name, db, rel string, s *object.Set) (int64, string, error) {
	raw, err := object.MarshalJSON(s)
	if err != nil {
		return 0, "", fmt.Errorf("wal: encode relation %s.%s: %w", db, rel, err)
	}
	sum := segChecksum(db, rel, raw)
	env := ckseg{Format: cksegFormat, Checksum: sum, DB: db, Rel: rel, Count: s.Len(), Set: raw}
	data, err := json.Marshal(&env)
	if err != nil {
		return 0, "", fmt.Errorf("wal: encode segment %s: %w", name, err)
	}
	f, err := l.opts.FS.Create(filepath.Join(l.dir, name))
	if err != nil {
		return 0, "", fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, "", fmt.Errorf("wal: write segment %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, "", fmt.Errorf("wal: sync segment %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return 0, "", fmt.Errorf("wal: close segment %s: %w", name, err)
	}
	return int64(len(data)), sum, nil
}

// collectSegmentsLocked removes relation-segment files referenced by no
// surviving checkpoint manifest: segments of pruned checkpoints and
// orphans of crashed ones. A manifest that fails to parse is skipped at
// recovery anyway, so losing its segments changes nothing.
func (l *Log) collectSegmentsLocked(names, ckpts []string) {
	referenced := make(map[string]bool)
	for _, n := range ckpts {
		for _, seg := range manifestSegs(filepath.Join(l.dir, n)) {
			referenced[seg] = true
		}
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "rel-") || !strings.HasSuffix(n, ".ckseg") {
			continue
		}
		if !referenced[n] {
			l.opts.FS.Remove(filepath.Join(l.dir, n))
		}
	}
}

// manifestSegs returns the segment files a checkpoint manifest
// references, without validating checksums; nil if it cannot be parsed.
func manifestSegs(path string) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var ck checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil
	}
	out := make([]string, 0, len(ck.Segments))
	for _, s := range ck.Segments {
		out = append(out, s.File)
	}
	return out
}

// appendLocked is Append without re-taking the mutex.
func (l *Log) appendLocked(typ byte, payload []byte) (uint64, error) {
	l.mu.Unlock()
	defer l.mu.Lock()
	return l.Append(typ, payload)
}

// readCheckpoint loads and validates one checkpoint file. Version 1
// manifests hold the whole universe inline; version 2 manifests are
// composed from the skeleton plus each referenced relation-segment file,
// and any missing, torn, or mismatched segment fails the whole
// checkpoint — Open then falls back to an older one.
func readCheckpoint(path string) (*checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, fmt.Errorf("wal: %s: malformed checkpoint: %w", filepath.Base(path), err)
	}
	if ck.Format != ckptFormat || (ck.Version != ckptVersionFull && ck.Version != ckptVersionIncr) {
		return nil, fmt.Errorf("wal: %s: unsupported checkpoint format %q v%d", filepath.Base(path), ck.Format, ck.Version)
	}
	switch ck.Version {
	case ckptVersionFull:
		if got := ckptChecksum(ck.LSN, ck.Rules, ck.Clauses, ck.Snapshot); got != ck.Checksum {
			return nil, fmt.Errorf("wal: %s: checkpoint corrupt: checksum %s != %s", filepath.Base(path), got, ck.Checksum)
		}
	case ckptVersionIncr:
		if got := ckptChecksumV2(ck.LSN, ck.Rules, ck.Clauses, ck.Snapshot, ck.Segments); got != ck.Checksum {
			return nil, fmt.Errorf("wal: %s: checkpoint corrupt: checksum %s != %s", filepath.Base(path), got, ck.Checksum)
		}
	}
	u, err := storage.Load(bytes.NewReader(ck.Snapshot))
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
	}
	if ck.Version == ckptVersionIncr {
		dir := filepath.Dir(path)
		for _, seg := range ck.Segments {
			s, err := readRelSegment(filepath.Join(dir, seg.File), seg)
			if err != nil {
				return nil, fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
			}
			dv, ok := u.Get(seg.DB)
			if !ok {
				return nil, fmt.Errorf("wal: %s: segment %s: database %q missing from skeleton", filepath.Base(path), seg.File, seg.DB)
			}
			dt, ok := dv.(*object.Tuple)
			if !ok || !dt.Has(seg.Rel) {
				return nil, fmt.Errorf("wal: %s: segment %s: relation %s.%s missing from skeleton", filepath.Base(path), seg.File, seg.DB, seg.Rel)
			}
			dt.Put(seg.Rel, s)
		}
	}
	ck.universe = u
	return &ck, nil
}

// readRelSegment loads one relation-segment file and verifies it against
// its manifest entry.
func readRelSegment(path string, want ckptSeg) (*object.Set, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", filepath.Base(path), err)
	}
	var env ckseg
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("segment %s: malformed: %w", filepath.Base(path), err)
	}
	if env.Format != cksegFormat {
		return nil, fmt.Errorf("segment %s: unsupported format %q", filepath.Base(path), env.Format)
	}
	if env.DB != want.DB || env.Rel != want.Rel {
		return nil, fmt.Errorf("segment %s: holds %s.%s, manifest expects %s.%s", filepath.Base(path), env.DB, env.Rel, want.DB, want.Rel)
	}
	if got := segChecksum(env.DB, env.Rel, env.Set); got != env.Checksum || got != want.Checksum {
		return nil, fmt.Errorf("segment %s: corrupt: checksum %s != %s", filepath.Base(path), got, want.Checksum)
	}
	o, err := object.UnmarshalJSON(env.Set)
	if err != nil {
		return nil, fmt.Errorf("segment %s: decode: %w", filepath.Base(path), err)
	}
	s, ok := o.(*object.Set)
	if !ok {
		return nil, fmt.Errorf("segment %s: payload is %T, not a set", filepath.Base(path), o)
	}
	if s.Len() != want.Count {
		return nil, fmt.Errorf("segment %s: %d elements, manifest expects %d", filepath.Base(path), s.Len(), want.Count)
	}
	return s, nil
}

// Status describes the log for status commands and banners.
type Status struct {
	Dir           string
	Mode          SyncMode
	NextLSN       uint64
	Appended      uint64 // records appended by this process
	Segments      int    // sealed + active
	SegmentBytes  int64  // bytes in the active segment
	CheckpointLSN uint64
	Checkpoints   int // checkpoints taken by this process
	Err           error

	// Durability instrumentation (native counters; live even without a
	// metrics registry).
	CheckpointLag  uint64 // records appended since the last checkpoint
	Fsyncs         uint64
	FsyncNanos     int64 // total time spent in fsync
	BytesAppended  int64 // record bytes appended by this process
	RecoveryNS     int64 // Open's scan + tail decode
	ReplayNS       int64 // caller-reported logical replay (NoteReplay)
	TruncatedTails uint64

	// Incremental-checkpoint accounting for the newest checkpoint this
	// process took: bytes actually written (manifest + new segments) vs.
	// the full footprint (manifest + every referenced segment), and the
	// segment reuse split. WroteBytes/TotalBytes is the incremental
	// ratio.
	CheckpointWroteBytes  int64
	CheckpointTotalBytes  int64
	CheckpointSegsWritten int
	CheckpointSegsReused  int
}

func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal: dir=%s mode=%s next-lsn=%d appended=%d segments=%d checkpoint-lsn=%d",
		s.Dir, s.Mode, s.NextLSN, s.Appended, s.Segments, s.CheckpointLSN)
	if s.Err != nil {
		fmt.Fprintf(&b, " ERROR=%v", s.Err)
	}
	return b.String()
}

// Status snapshots the log's state.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := len(l.sealed)
	if l.active != nil {
		segs++
	}
	return Status{
		Dir:            l.dir,
		Mode:           l.opts.Mode,
		NextLSN:        l.nextLSN,
		Appended:       l.appended,
		Segments:       segs,
		SegmentBytes:   l.activeSize,
		CheckpointLSN:  l.ckptLSN,
		Checkpoints:    l.ckptCount,
		Err:            l.err,
		CheckpointLag:  l.nextLSN - 1 - l.ckptLSN,
		Fsyncs:         l.fsyncs,
		FsyncNanos:     l.fsyncNanos,
		BytesAppended:  l.bytesAppended,
		RecoveryNS:     l.recoveryNS,
		ReplayNS:       l.replayNS,
		TruncatedTails: l.truncatedTails,

		CheckpointWroteBytes:  l.ckptWroteBytes,
		CheckpointTotalBytes:  l.ckptTotalBytes,
		CheckpointSegsWritten: l.ckptSegsWritten,
		CheckpointSegsReused:  l.ckptSegsReused,
	}
}

// Close syncs and closes the active segment. The sticky write failure,
// if any, is returned.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return l.err
	}
	serr := l.syncLocked()
	cerr := l.active.Close()
	l.active = nil
	if l.err != nil {
		return l.err
	}
	if serr != nil {
		return serr
	}
	return cerr
}
