package workload

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"idl"
	"idl/internal/qlog"
	"idl/internal/server"
)

// Replay semantics. Journal records replay in order against a target:
// the embedded DB a caller opened (usually Open over the journal
// header's meta) or a server behind the wire protocol. Rules and
// clauses re-register; queries, update requests and program calls
// re-execute; each outcome is compared field-by-field with what the
// original run journaled. The canonical renderings qlog captures
// (sorted answers, deterministic degraded reports) — which the server
// renders too — make the comparison a byte comparison, so one loop
// checks both targets.
//
// Recovered mode relaxes one case: a record captured under degradation
// replayed against a healthy federation. The replayed answer then
// legitimately holds MORE rows than the recorded best-effort answer, so
// the record passes when the recorded rows are a subset of the replayed
// ones (and a recorded degraded false may recover to true).

// Options tunes Replay's comparison.
type Options struct {
	// Recovered accepts records whose recorded answer was degraded but
	// whose replayed answer is healthy, provided the recorded rows are a
	// subset of the replayed rows.
	Recovered bool
}

// Replayed is what a target made of one record, in the journal's terms.
type Replayed struct {
	Err      string
	Answer   string
	Rows     int
	Degraded string
	Exec     qlog.ExecSummary
}

// A Target runs one replayable record (rule, clause, query, exec or
// call) and reports its outcome.
type Target func(ctx context.Context, rec qlog.Record) Replayed

// Embedded replays against db in process.
func Embedded(db *idl.DB) Target {
	return func(ctx context.Context, rec qlog.Record) (out Replayed) {
		var err error
		switch rec.Kind {
		case qlog.KindRule:
			err = db.DefineView(rec.Text)
		case qlog.KindClause:
			err = db.DefineProgram(rec.Text)
		case qlog.KindQuery:
			var ans *idl.Result
			if ans, err = db.QueryCtx(ctx, rec.Text); err == nil {
				out.Answer, out.Rows = ans.String(), ans.Len()
				if ans.Degraded != nil {
					out.Degraded = ans.Degraded.String()
				}
			}
		default: // exec, call
			var info *idl.ExecInfo
			if info, err = db.ExecCtx(ctx, rec.Text); err == nil {
				out.Exec = qlog.ExecSummary{
					ElemsInserted: info.ElemsInserted,
					ElemsDeleted:  info.ElemsDeleted,
					AttrsCreated:  info.AttrsCreated,
					AttrsDeleted:  info.AttrsDeleted,
					ValuesSet:     info.ValuesSet,
					Bindings:      info.Bindings,
				}
			}
		}
		if err != nil {
			out.Err = err.Error()
		}
		return out
	}
}

// Wire replays against the server behind c: every record becomes one
// request on one client (one tenant, one connection's worth of state),
// and replayed latencies include the HTTP round trip. A StatusError's
// Msg carries the server-side error string verbatim, so it compares
// against the journaled error as an engine error would; a transport
// failure can never match one.
func Wire(c *server.Client) Target {
	return func(ctx context.Context, rec qlog.Record) (out Replayed) {
		var err error
		switch rec.Kind {
		case qlog.KindRule:
			err = c.Rule(ctx, rec.Text)
		case qlog.KindClause:
			err = c.Clause(ctx, rec.Text)
		case qlog.KindQuery:
			var resp *server.QueryResponse
			if resp, err = c.Query(ctx, rec.Text); err == nil {
				out.Answer, out.Rows, out.Degraded = resp.Answer, resp.Rows, resp.Degraded
			}
		default: // exec, call
			var resp *server.ExecResponse
			if resp, err = c.Exec(ctx, rec.Text); err == nil {
				out.Exec = resp.Exec
			}
		}
		var se *server.StatusError
		switch {
		case errors.As(err, &se):
			out.Err = se.Msg
		case err != nil:
			out.Err = "transport: " + err.Error()
		}
		return out
	}
}

// Mismatch is one field where replay diverged from the journal.
type Mismatch struct {
	Seq   int
	Kind  string
	Text  string
	Field string // "answer", "rows", "exec", "degraded", "err", "kind"
	Want  string // journaled
	Got   string // replayed
}

func (m Mismatch) String() string {
	return fmt.Sprintf("#%d %s %s: %s: want %q, got %q", m.Seq, m.Kind, m.Text, m.Field, m.Want, m.Got)
}

// Outcome is one replayed record's timing, for perf-mode comparison.
type Outcome struct {
	Seq        int
	Kind       string
	RecordedNS int64
	ReplayedNS int64
}

// Report is the result of replaying a journal.
type Report struct {
	Total      int
	ByKind     map[string]int
	Recovered  int // degraded records accepted under Options.Recovered
	Mismatches []Mismatch
	Outcomes   []Outcome
}

// OK reports whether every record replayed to its journaled outcome.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

func (r *Report) String() string {
	var kinds []string
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.ByKind[k]))
	}
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("%d mismatches", len(r.Mismatches))
	}
	s := fmt.Sprintf("replayed %d records (%s): %s", r.Total, strings.Join(parts, " "), status)
	if r.Recovered > 0 {
		s += fmt.Sprintf(" (%d degraded records recovered)", r.Recovered)
	}
	return s
}

// Replay runs every record against target in journal order and
// compares outcomes. Execution errors do not stop the replay: they
// surface as "err" mismatches unless the journal recorded the same
// error.
func Replay(ctx context.Context, target Target, recs []qlog.Record, opts Options) *Report {
	rep := &Report{ByKind: map[string]int{}}
	for _, rec := range recs {
		rep.Total++
		rep.ByKind[rec.Kind]++
		switch rec.Kind {
		case qlog.KindRule, qlog.KindClause, qlog.KindQuery, qlog.KindExec, qlog.KindCall:
		default:
			rep.mismatch(rec, "kind", rec.Kind, "replayable record")
			continue
		}
		start := time.Now()
		got := target(ctx, rec)
		rep.Outcomes = append(rep.Outcomes, Outcome{
			Seq:        rec.Seq,
			Kind:       rec.Kind,
			RecordedNS: rec.NS,
			ReplayedNS: time.Since(start).Nanoseconds(),
		})
		switch {
		case got.Err != rec.Err:
			rep.mismatch(rec, "err", rec.Err, got.Err)
		case got.Err != "":
			// Both failed identically.
		case rec.Kind == qlog.KindQuery:
			rep.compareQuery(rec, got, opts)
		case rec.Kind == qlog.KindExec || rec.Kind == qlog.KindCall:
			rep.compareExec(rec, got)
		}
	}
	return rep
}

func (r *Report) mismatch(rec qlog.Record, field, want, got string) {
	r.Mismatches = append(r.Mismatches, Mismatch{
		Seq: rec.Seq, Kind: rec.Kind, Text: rec.Text,
		Field: field, Want: want, Got: got,
	})
}

func (r *Report) compareQuery(rec qlog.Record, got Replayed, opts Options) {
	if opts.Recovered && rec.Degraded != "" && got.Degraded == "" {
		// Captured degraded, replayed healthy: the recorded best-effort
		// rows must all reappear in the (possibly larger) healthy answer.
		if !answerSubset(rec.Answer, got.Answer) {
			r.mismatch(rec, "answer", rec.Answer+" (subset)", got.Answer)
		} else {
			r.Recovered++
		}
		return
	}
	if got.Degraded != rec.Degraded {
		r.mismatch(rec, "degraded", rec.Degraded, got.Degraded)
	}
	if got.Answer != rec.Answer {
		r.mismatch(rec, "answer", rec.Answer, got.Answer)
		return
	}
	if got.Rows != rec.Rows {
		r.mismatch(rec, "rows", fmt.Sprint(rec.Rows), fmt.Sprint(got.Rows))
	}
}

func (r *Report) compareExec(rec qlog.Record, got Replayed) {
	want := qlog.ExecSummary{}
	if rec.Exec != nil {
		want = *rec.Exec
	}
	if got.Exec != want {
		r.mismatch(rec, "exec", fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got.Exec))
	}
}

// answerSubset reports whether every row of the recorded answer appears
// in the replayed one. Answers render as a header line plus sorted rows;
// boolean answers render as "true"/"false", where a degraded false may
// recover to true.
func answerSubset(recorded, replayed string) bool {
	if recorded == replayed {
		return true
	}
	if recorded == "false" && replayed == "true" {
		return true
	}
	recLines := strings.Split(recorded, "\n")
	repLines := strings.Split(replayed, "\n")
	if len(recLines) == 0 || len(repLines) == 0 || recLines[0] != repLines[0] {
		return false // different header: not the same query shape
	}
	have := make(map[string]bool, len(repLines))
	for _, l := range repLines[1:] {
		have[l] = true
	}
	for _, l := range recLines[1:] {
		if !have[l] {
			return false
		}
	}
	return true
}

// LatencySummary is a latency distribution over one record kind.
type LatencySummary struct {
	Count int
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s", s.Count, s.P50, s.P90, s.P99, s.Max)
}

func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(ns)-1))
		return time.Duration(ns[i])
	}
	return LatencySummary{
		Count: len(ns),
		P50:   pick(0.50),
		P90:   pick(0.90),
		P99:   pick(0.99),
		Max:   time.Duration(ns[len(ns)-1]),
	}
}

// Latencies summarizes the recorded and replayed latency distributions
// of one record kind ("" = all kinds).
func (r *Report) Latencies(kind string) (recorded, replayed LatencySummary) {
	var rec, rep []int64
	for _, o := range r.Outcomes {
		if kind != "" && o.Kind != kind {
			continue
		}
		rec = append(rec, o.RecordedNS)
		rep = append(rep, o.ReplayedNS)
	}
	return summarize(rec), summarize(rep)
}
