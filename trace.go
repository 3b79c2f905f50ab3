package idl

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"idl/internal/obs"
	"idl/internal/qlog"
)

// Trace export and correlation. Every query, update request and program
// call mints a stable trace ID at the DB facade. The ID is threaded
// through the flight-recorder event ("trace_id"), the workload journal
// record, the evaluator's root span ("trace" attribute), federation
// member-fetch spans and WAL commit spans — so one federated durable
// query can be followed from the CLI down to the fsync that committed
// it, and an exported span tree joins against flight-recorder events and
// WAL LSNs offline.

// newTraceBase seeds the per-process trace-ID base. Randomness keeps IDs
// unique across restarts; when the system's entropy source fails, the
// clock is a serviceable fallback — IDs only need to be distinct, not
// unguessable.
func newTraceBase() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// nextTraceID mints the next trace ID: 16 hex digits, unique within the
// process and (with high probability) across processes. The
// golden-ratio multiplier spreads consecutive sequence numbers across
// the whole ID space, so IDs from one run don't share a prefix.
func (db *DB) nextTraceID() string {
	seq := db.traceSeq.Add(1)
	return hex16(db.traceBase ^ (seq * 0x9e3779b97f4a7c15))
}

// hex16 renders v as fmt's %016x does: 16 lowercase hex digits,
// zero-padded.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// traceIDFor returns the trace ID one operation should run under: the
// ID already tagged on ctx when an upstream caller supplied one (the
// wire server adopts X-Trace-Id headers this way), else a freshly
// minted one. Adoption keeps one distributed request correlated across
// the wire protocol, flight-recorder events, journal records, span
// trees and WAL commit spans.
func (db *DB) traceIDFor(ctx context.Context) string {
	if tid := qlog.TraceID(ctx); tid != "" {
		return tid
	}
	return db.nextTraceID()
}

// TraceRecord is one exported operation trace: the facade-minted trace
// ID the flight-recorder event, journal record and event log carry too,
// and the root span with its children (conjunct evaluations, member
// fetches are separate roots sharing the trace ID).
type TraceRecord struct {
	TraceID string    `json:"trace_id,omitempty"`
	Root    *obs.Span `json:"root"`
}

// Traces returns the retained span trees, oldest first, with their
// trace IDs lifted out of the root spans' attributes. It fails when
// tracing is not enabled (EnableTracing attaches the tracer).
func (db *DB) Traces() ([]TraceRecord, error) {
	t := db.Tracer()
	if t == nil {
		return nil, fmt.Errorf("idl: tracing is not enabled (call EnableTracing)")
	}
	roots := t.Recent()
	out := make([]TraceRecord, 0, len(roots))
	for _, root := range roots {
		rec := TraceRecord{Root: root}
		for _, a := range root.Attrs {
			if a.Key == "trace" {
				rec.TraceID = a.Str
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// ExportTraces writes the retained traces to w as one JSON document:
// {"traces": [...], "dropped": N} — dropped counts span trees the
// retention bound evicted, so a consumer can tell a quiet window from
// an overwritten one. Span trees serialize with name, duration_ns,
// attrs and children, so the export can be joined against the event
// log (trace_id), the workload journal (trace_id) and WAL records (the
// wal.commit span's lsn attribute) offline.
func (db *DB) ExportTraces(w io.Writer) error {
	traces, err := db.Traces()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Traces  []TraceRecord `json:"traces"`
		Dropped uint64        `json:"dropped"`
	}{Traces: traces, Dropped: db.Tracer().Dropped()})
}
