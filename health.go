package idl

import (
	"fmt"
	"strings"
	"time"

	"idl/internal/obs"
)

// Health reporting: rolling-window operation latencies (p50/p99/p999
// over the last minute, not since process start) plus SLO burn rates and
// durability state, as one structured report. This is the signal plane
// an admission controller or a human at the REPL (`\health`) reads to
// decide whether the engine is keeping up — cumulative counters in
// `\stats` answer "how much work happened", Health answers "how is it
// going right now".

// OpHealth is one operation kind's rolling-window latency summary.
type OpHealth struct {
	Name       string        `json:"name"`
	WindowNS   int64         `json:"window_ns"`
	Count      uint64        `json:"count"`
	RatePerSec float64       `json:"rate_per_sec"`
	MeanNS     int64         `json:"mean_ns"`
	P50NS      int64         `json:"p50_ns"`
	P99NS      int64         `json:"p99_ns"`
	P999NS     int64         `json:"p999_ns"`
	MaxNS      int64         `json:"max_ns"`
	Window     time.Duration `json:"-"`
}

// WALHealth is the durability layer's health entry, a JSON-friendly
// projection of WALStatus.
type WALHealth struct {
	Dir            string `json:"dir"`
	Durability     string `json:"durability"`
	LSN            uint64 `json:"lsn"`
	Segments       int    `json:"segments"`
	CheckpointLSN  uint64 `json:"checkpoint_lsn"`
	CheckpointLag  uint64 `json:"checkpoint_lag"`
	Fsyncs         uint64 `json:"fsyncs"`
	FsyncTotalNS   int64  `json:"fsync_total_ns"`
	BytesAppended  int64  `json:"bytes_appended"`
	RecoveryNS     int64  `json:"recovery_ns"`
	TruncatedTails uint64 `json:"truncated_tails"`
	Err            string `json:"err,omitempty"`
}

// StatementHealth is one statement digest's entry in the health report:
// the heaviest query shapes by total evaluation time, joined in when
// insights are enabled.
type StatementHealth struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Calls       uint64 `json:"calls"`
	Errors      uint64 `json:"errors"`
	RowsScanned uint64 `json:"rows_scanned"`
	P99NS       int64  `json:"p99_ns"`
	TotalNS     int64  `json:"total_ns"`
}

// MVCCHealth is the snapshot version chain's health entry: whether a
// head snapshot is published, how many versions readers are holding
// live, and the estimated retained footprint.
type MVCCHealth = MVCCStats

// HealthReport is the DB's point-in-time health: rolling-window latency
// summaries per operation kind, SLO statuses, the heaviest statement
// digests (when insights are enabled), the MVCC version chain, and (for
// durable sessions) the WAL's state.
type HealthReport struct {
	Ops        []OpHealth        `json:"ops"`
	SLOs       []obs.SLOStatus   `json:"slos"`
	Statements []StatementHealth `json:"statements,omitempty"`
	MVCC       *MVCCHealth       `json:"mvcc,omitempty"`
	WAL        *WALHealth        `json:"wal,omitempty"`
}

// Healthy reports whether every SLO is inside its error budget and the
// WAL (when attached) has not failed.
func (h *HealthReport) Healthy() bool {
	for _, s := range h.SLOs {
		if !s.Healthy {
			return false
		}
	}
	return h.WAL == nil || h.WAL.Err == ""
}

// String renders the report for the REPL's \health command.
func (h *HealthReport) String() string {
	var b strings.Builder
	state := "healthy"
	if !h.Healthy() {
		state = "UNHEALTHY"
	}
	fmt.Fprintf(&b, "health: %s\n", state)
	for _, op := range h.Ops {
		fmt.Fprintf(&b, "%s: win=%s n=%d rate=%.3g/s mean=%s p50=%s p99=%s p999=%s max=%s\n",
			op.Name, op.Window, op.Count, op.RatePerSec,
			time.Duration(op.MeanNS), time.Duration(op.P50NS),
			time.Duration(op.P99NS), time.Duration(op.P999NS), time.Duration(op.MaxNS))
	}
	for _, s := range h.SLOs {
		fmt.Fprintf(&b, "%s\n", s.String())
	}
	for _, d := range h.Statements {
		fmt.Fprintf(&b, "digest %s kind=%s calls=%d err=%d rows=%d p99=%s total=%s\n",
			d.Fingerprint, d.Kind, d.Calls, d.Errors, d.RowsScanned,
			time.Duration(d.P99NS), time.Duration(d.TotalNS))
	}
	if m := h.MVCC; m != nil {
		fmt.Fprintf(&b, "mvcc: versions=%d/%d head-epoch=%d published=%t pinned=%d retained-bytes=%d freezes=%d collected=%d cow-clones=%d\n",
			m.LiveVersions, m.MaxRevisions, m.HeadEpoch, m.HeadPublished,
			m.PinnedReaders, m.RetainedBytes, m.Freezes, m.Collected, m.COWClones)
	}
	if h.WAL != nil {
		fmt.Fprintf(&b, "wal: durability=%s lsn=%d segments=%d checkpoint-lag=%d fsyncs=%d fsync-total=%s appended-bytes=%d recovery=%s truncated-tails=%d",
			h.WAL.Durability, h.WAL.LSN, h.WAL.Segments, h.WAL.CheckpointLag,
			h.WAL.Fsyncs, time.Duration(h.WAL.FsyncTotalNS), h.WAL.BytesAppended,
			time.Duration(h.WAL.RecoveryNS), h.WAL.TruncatedTails)
		if h.WAL.Err != "" {
			fmt.Fprintf(&b, " ERROR=%s", h.WAL.Err)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// opWindows are the statement kinds Health reports, in render order.
// The facade's op feeds them (obs.go, stmtMetrics), embedded or served:
// the wire server times no statement of its own.
var opWindows = []string{"engine.query", "engine.exec", "engine.call"}

// Health returns the rolling-window health report. It fails when metrics
// are not enabled (Metrics attaches the registry; Mount does too) —
// health is a metrics product, and silently returning an empty report
// would read as "healthy".
func (db *DB) Health() (*HealthReport, error) {
	reg := db.metricsRef()
	if reg == nil {
		return nil, fmt.Errorf("idl: metrics are not enabled (call Metrics or mount a member)")
	}
	h := &HealthReport{}
	for _, name := range opWindows {
		ws, ok := reg.WindowValue(name + ".latency")
		if !ok {
			continue
		}
		h.Ops = append(h.Ops, OpHealth{
			Name:       name,
			WindowNS:   int64(ws.Window),
			Window:     ws.Window,
			Count:      ws.Count,
			RatePerSec: ws.Rate(),
			MeanNS:     int64(ws.Mean()),
			P50NS:      int64(ws.Quantile(0.50)),
			P99NS:      int64(ws.Quantile(0.99)),
			P999NS:     int64(ws.Quantile(0.999)),
			MaxNS:      int64(ws.Max),
		})
	}
	h.SLOs = reg.SLOStatuses()
	if s := db.insightsRef(); s != nil {
		// The three busiest shapes by call count: enough to name the
		// workload's hot statements without flooding the report (the full
		// table, including time/p99/rows orderings, lives behind
		// Statements / \top). Calls order deterministically (fingerprint
		// tiebreak), so the report goldens byte-stably.
		if tops, err := s.Top(3, "calls"); err == nil {
			for _, d := range tops {
				h.Statements = append(h.Statements, StatementHealth{
					Fingerprint: d.Fingerprint,
					Kind:        d.Kind,
					Calls:       d.Calls,
					Errors:      d.Errors,
					RowsScanned: d.Resources.RowsScanned,
					P99NS:       d.P99NS,
					TotalNS:     d.TotalNS,
				})
			}
		}
	}
	ms := db.MVCCStats()
	h.MVCC = &ms
	if st, ok := db.WALStatus(); ok {
		wh := &WALHealth{
			Dir:            st.Dir,
			Durability:     st.Durability.String(),
			LSN:            st.NextLSN - 1,
			Segments:       st.Segments,
			CheckpointLSN:  st.CheckpointLSN,
			CheckpointLag:  st.CheckpointLag,
			Fsyncs:         st.Fsyncs,
			FsyncTotalNS:   int64(st.FsyncTotal),
			BytesAppended:  st.BytesAppended,
			RecoveryNS:     int64(st.Recovery),
			TruncatedTails: st.TruncatedTails,
		}
		if st.Err != nil {
			wh.Err = st.Err.Error()
		}
		h.WAL = wh
	}
	return h, nil
}

// SetSLO adjusts one operation SLO (name "engine.query", "engine.exec"
// or "engine.call") at runtime: target is the latency above which an
// operation burns error budget, objective the required good fraction
// (0 < objective < 1). Non-positive target / out-of-range objective
// leave the respective parameter unchanged. It fails when metrics are
// not enabled.
func (db *DB) SetSLO(name string, target time.Duration, objective float64) error {
	reg := db.metricsRef()
	if reg == nil {
		return fmt.Errorf("idl: metrics are not enabled (call Metrics or mount a member)")
	}
	t := reg.SLO(name, 0, 0)
	t.SetTarget(target)
	t.SetObjective(objective)
	return nil
}
