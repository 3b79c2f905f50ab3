package qlog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize is the flight recorder's default capacity. Small
// enough that a dump is readable, large enough to cover the window
// leading up to a failure.
const DefaultRingSize = 256

// Recorder is the per-DB event pipeline. Every engine operation opens
// an Op, annotates it, and Ends it; the recorder then fans the finished
// Event out to whichever sinks are attached:
//
//   - the flight-recorder ring (on by default),
//   - the structured slog JSON event log (off by default),
//   - the workload journal (off by default; statement kinds only),
//   - the auto-dump writer (off by default; fires on errors and on
//     breaker-open transitions).
//
// All sink pointers are atomics so the hot path never takes a lock and
// reconfiguration is safe against in-flight operations.
type Recorder struct {
	ring    atomic.Pointer[Ring]
	seq     atomic.Uint64
	slowNS  atomic.Int64
	logger  atomic.Pointer[slog.Logger]
	journal atomic.Pointer[Journal]

	dumpMu sync.Mutex
	dump   io.Writer
}

// NewRecorder returns a recorder whose flight ring holds ringSize
// events (<= 0 disables the ring).
func NewRecorder(ringSize int) *Recorder {
	r := &Recorder{}
	r.ring.Store(NewRing(ringSize))
	return r
}

// SetRingSize replaces the flight ring with one of the given capacity
// (<= 0 disables it). Buffered events are discarded; sequence numbers
// continue.
func (r *Recorder) SetRingSize(n int) {
	if r == nil {
		return
	}
	r.ring.Store(NewRing(n))
}

// RingCap returns the current flight-ring capacity.
func (r *Recorder) RingCap() int {
	if r == nil {
		return 0
	}
	return r.ring.Load().Cap()
}

// SetLogger attaches the structured event log, emitting one JSON line
// per event to w (nil detaches).
func (r *Recorder) SetLogger(w io.Writer) {
	if r == nil {
		return
	}
	if w == nil {
		r.logger.Store(nil)
		return
	}
	r.logger.Store(slog.New(slog.NewJSONHandler(w, nil)))
}

// SetSlowThreshold promotes events slower than d to WARN in the event
// log and marks them Slow in the ring (d <= 0 disables).
func (r *Recorder) SetSlowThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.slowNS.Store(int64(d))
}

// SlowThreshold returns the current slow-query threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNS.Load())
}

// SetJournal attaches a workload journal (nil detaches). The journal is
// not closed by the recorder; the owner must Close it.
func (r *Recorder) SetJournal(j *Journal) {
	if r == nil {
		return
	}
	if j == nil {
		r.journal.Store(nil)
		return
	}
	r.journal.Store(j)
}

// Journal returns the attached journal, or nil.
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal.Load()
}

// SetAutoDump makes the recorder dump the flight ring to w whenever an
// operation ends in an error or a breaker opens (nil disables).
func (r *Recorder) SetAutoDump(w io.Writer) {
	if r == nil {
		return
	}
	r.dumpMu.Lock()
	r.dump = w
	r.dumpMu.Unlock()
}

// Events returns a point-in-time snapshot of the flight ring, oldest
// first.
func (r *Recorder) Events() []*Event {
	if r == nil {
		return nil
	}
	return r.ring.Load().Snapshot()
}

// Tail returns the flight ring's n most recent events, oldest first, in
// a slice that retains nothing else: the excerpt a slow-query exemplar
// keeps.
func (r *Recorder) Tail(n int) []*Event {
	if r == nil {
		return nil
	}
	return r.ring.Load().Tail(n)
}

// Dump writes a human rendering of the flight ring to w; redact blanks
// timing-dependent fields for byte-stable output.
func (r *Recorder) Dump(w io.Writer, redact bool) {
	if r == nil {
		return
	}
	ring := r.ring.Load()
	evs := ring.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d buffered / %d total events (cap %d)\n",
		len(evs), ring.Total(), ring.Cap())
	for _, e := range evs {
		fmt.Fprintf(w, "%s\n", e.format(redact))
	}
}

// Active reports whether any sink would observe an operation; callers
// may skip building event text when false.
func (r *Recorder) Active() bool {
	if r == nil {
		return false
	}
	return r.ring.Load() != nil || r.logger.Load() != nil || r.journal.Load() != nil
}

// Logging reports whether the structured event log is attached (used to
// gate optional, costlier annotations such as plan digests).
func (r *Recorder) Logging() bool {
	return r != nil && r.logger.Load() != nil
}

// Op is one in-flight operation. A nil *Op is valid and inert, so call
// sites stay branch-free: annotate unconditionally, End once.
type Op struct {
	r       *Recorder
	ev      Event
	start   time.Time
	journal bool   // this op's kind is journaled and a journal is attached
	answer  string // canonical answer rendering, when journaling
	exec    *ExecSummary
}

// Begin opens an operation of the given kind, or returns nil when no
// sink is attached.
func (r *Recorder) Begin(kind string) *Op { return r.BeginAt(kind, time.Time{}) }

// BeginAt is Begin for a caller that times the operation itself: start
// is the instant it read, and EndAfter takes the duration it measures
// from it, so one clock reading at each end serves the caller and the
// record. A zero start reads the clock here.
func (r *Recorder) BeginAt(kind string, start time.Time) *Op {
	if !r.Active() {
		return nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	op := &Op{
		r:       r,
		start:   start,
		journal: Journaled(kind) && r.journal.Load() != nil,
	}
	op.ev.Seq = r.seq.Add(1)
	op.ev.Time = op.start
	op.ev.Kind = kind
	return op
}

// Emit records a zero-duration event (rule/clause definitions, where
// the interesting payload is the text and any error).
func (r *Recorder) Emit(kind, text string, err error) {
	op := r.Begin(kind)
	if op == nil {
		return
	}
	op.SetText(text)
	op.End(err)
}

// BreakerTransition records a circuit-breaker state change on a member
// database. Transitions to "open" trigger an auto-dump: the ring at
// that moment is the story of how the member died.
func (r *Recorder) BreakerTransition(member, from, to string) {
	op := r.Begin(KindBreaker)
	if op == nil {
		return
	}
	op.ev.Member = member
	op.SetText(fmt.Sprintf("%s -> %s", from, to))
	op.finish(time.Since(op.start), "")
	if to == "open" {
		op.autoDump(fmt.Sprintf("breaker opened on member %q", member))
	}
}

// Seq returns the operation's recorder-wide sequence number (0 for a
// nil op).
func (op *Op) Seq() uint64 {
	if op == nil {
		return 0
	}
	return op.ev.Seq
}

// SetTraceID records the facade-minted trace ID joining this event to
// span trees, journal records and WAL commit spans.
func (op *Op) SetTraceID(id string) {
	if op == nil || id == "" {
		return
	}
	op.ev.TraceID = id
}

// Journaling reports whether this op will be appended to the journal;
// callers use it to decide whether to render the full canonical answer.
func (op *Op) Journaling() bool { return op != nil && op.journal }

// Logging reports whether the structured event log will see this op.
func (op *Op) Logging() bool { return op != nil && op.r.Logging() }

// SetText sets the canonical statement rendering and its digest.
func (op *Op) SetText(text string) {
	if op == nil {
		return
	}
	op.ev.Text = text
	op.ev.Digest = Digest(text)
}

// SetPlanDigest hashes the static plan rendering into the event.
func (op *Op) SetPlanDigest(plan string) {
	if op == nil {
		return
	}
	op.ev.PlanDigest = Digest(plan)
}

// SetRows records the answer cardinality.
func (op *Op) SetRows(rows int) {
	if op == nil {
		return
	}
	op.ev.Rows = rows
}

// SetAnswer records the canonical answer rendering (journaled) plus its
// cardinality.
func (op *Op) SetAnswer(answer string, rows int) {
	if op == nil {
		return
	}
	op.answer = answer
	op.ev.Rows = rows
}

// SetWorkers records the parallelism degree the operation ran under.
// Sequential runs (n <= 1) leave the field zero so event renderings and
// journal records are unchanged from pre-parallel captures.
func (op *Op) SetWorkers(n int) {
	if op == nil || n <= 1 {
		return
	}
	op.ev.Workers = n
}

// SetPlanCache records the query's plan-cache outcome ("hit", "stale",
// "miss", "cold"). Unplanned runs (empty outcome) leave the field zero
// so event renderings and journal records are unchanged from pre-planner
// captures.
func (op *Op) SetPlanCache(outcome string) {
	if op == nil || outcome == "" {
		return
	}
	op.ev.PlanCache = outcome
}

// SetExec records an update request's outcome counters.
func (op *Op) SetExec(sum ExecSummary, changes int) {
	if op == nil {
		return
	}
	op.exec = &sum
	op.ev.Changes = changes
}

// SetDegraded records the federation degraded report and the conjuncts
// it caused to be skipped.
func (op *Op) SetDegraded(report string, skipped []string) {
	if op == nil {
		return
	}
	op.ev.Degraded = report
	op.ev.Skipped = skipped
}

// End closes the operation: stamps the duration, classifies slowness,
// publishes to the ring, emits the log line, appends the journal record
// and fires the auto-dump on error. End must be called exactly once.
func (op *Op) End(err error) {
	if op == nil {
		return
	}
	op.EndAfter(time.Since(op.start), err)
}

// EndAfter is End with the duration d measured by the caller from the
// start it passed to BeginAt.
func (op *Op) EndAfter(d time.Duration, err error) {
	if op == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	op.finish(d, msg)
	if msg != "" {
		op.autoDump(fmt.Sprintf("%s failed: %s", op.ev.Kind, msg))
	}
}

func (op *Op) finish(d time.Duration, errMsg string) {
	op.ev.Duration = d
	op.ev.Err = errMsg
	if t := op.r.slowNS.Load(); t > 0 && int64(op.ev.Duration) >= t {
		op.ev.Slow = true
	}
	ev := &op.ev
	op.r.ring.Load().Put(ev)
	if lg := op.r.logger.Load(); lg != nil {
		lg.LogAttrs(context.Background(), level(ev), ev.Kind, attrs(ev)...)
	}
	if op.journal {
		if j := op.r.journal.Load(); j != nil {
			// Append assigns the journal-local sequence number.
			j.Append(Record{
				Kind:      ev.Kind,
				Text:      ev.Text,
				Digest:    ev.Digest,
				NS:        int64(ev.Duration),
				Rows:      ev.Rows,
				Answer:    op.answer,
				Exec:      op.exec,
				Degraded:  ev.Degraded,
				Workers:   ev.Workers,
				PlanCache: ev.PlanCache,
				TraceID:   ev.TraceID,
				Err:       ev.Err,
			})
		}
	}
}

func (op *Op) autoDump(why string) {
	r := op.r
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if r.dump == nil {
		return
	}
	fmt.Fprintf(r.dump, "-- auto-dump: %s --\n", why)
	r.Dump(r.dump, false)
}

func level(ev *Event) slog.Level {
	switch {
	case ev.Err != "":
		return slog.LevelError
	case ev.Slow:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

func attrs(ev *Event) []slog.Attr {
	out := make([]slog.Attr, 0, 12)
	out = append(out,
		slog.Uint64("seq", ev.Seq),
		slog.Duration("dur", ev.Duration),
	)
	if ev.Text != "" {
		out = append(out, slog.String("text", ev.Text), slog.String("digest", ev.Digest))
	}
	if ev.PlanDigest != "" {
		out = append(out, slog.String("plan_digest", ev.PlanDigest))
	}
	if ev.Kind == KindQuery && ev.Err == "" {
		out = append(out, slog.Int("rows", ev.Rows))
	}
	if (ev.Kind == KindExec || ev.Kind == KindCall) && ev.Err == "" {
		out = append(out, slog.Int("changes", ev.Changes))
	}
	if len(ev.Skipped) > 0 {
		out = append(out, slog.Any("skipped", ev.Skipped))
	}
	if ev.Degraded != "" {
		out = append(out, slog.String("degraded", firstLine(ev.Degraded)))
	}
	if ev.Member != "" {
		out = append(out, slog.String("member", ev.Member))
	}
	if ev.Workers > 0 {
		out = append(out, slog.Int("workers", ev.Workers))
	}
	if ev.PlanCache != "" {
		out = append(out, slog.String("plan_cache", ev.PlanCache))
	}
	if ev.TraceID != "" {
		out = append(out, slog.String("trace", ev.TraceID))
	}
	if ev.Slow {
		out = append(out, slog.Bool("slow", true))
	}
	if ev.Err != "" {
		out = append(out, slog.String("err", ev.Err))
	}
	return out
}

type traceIDKey struct{}

// WithTraceID tags ctx with a facade-minted trace ID so spans created
// anywhere below the facade (member fetches, WAL commits, evaluator
// roots) can carry the same correlation key.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID extracts the trace ID from ctx ("" when absent).
func TraceID(ctx context.Context) string {
	if v, ok := ctx.Value(traceIDKey{}).(string); ok {
		return v
	}
	return ""
}
