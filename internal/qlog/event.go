// Package qlog is the engine's temporal observability layer: where
// internal/obs answers "what is the system doing right now" (counters,
// spans), qlog answers "what happened, in order". It provides three
// cooperating pieces built around a single Event type:
//
//   - a fixed-size lock-free Ring holding the last N events (the flight
//     recorder — always on, near-zero cost),
//   - an slog-based structured JSON event log with a slow-query
//     threshold that promotes events to WARN,
//   - an append-only, versioned `.idlog` Journal capturing a replayable
//     workload (statements plus their canonical answers).
//
// qlog sits below the public idl package and below internal/core so both
// can emit into it without an import cycle: qlog imports neither.
package qlog

import (
	"fmt"
	"strings"
	"time"
)

// Event kinds. Statement kinds (query/exec/call/rule/clause) are
// replayable and eligible for journaling; sync and breaker events are
// environmental and recorded only in the ring and event log.
const (
	KindQuery   = "query"   // read-only query request
	KindExec    = "exec"    // update request
	KindCall    = "call"    // named program invocation
	KindRule    = "rule"    // view/rule definition
	KindClause  = "clause"  // program clause definition
	KindSync    = "sync"    // federation member snapshot sync
	KindBreaker = "breaker" // circuit breaker state transition

	// Durability events (environmental: ring and event log only).
	KindRecover    = "recover"    // WAL recovery summary at startup
	KindCheckpoint = "checkpoint" // WAL checkpoint taken
)

// Event is one record of engine activity. Events are immutable once
// published to the ring; all fields are plain values so a snapshot can
// be rendered or serialized without coordination.
type Event struct {
	Seq        uint64        `json:"seq"`                   // recorder-wide sequence number
	Time       time.Time     `json:"time"`                  // wall-clock start of the operation
	Kind       string        `json:"kind"`                  // one of the Kind* constants
	Text       string        `json:"text,omitempty"`        // canonical statement rendering (or sync/breaker summary)
	Digest     string        `json:"digest,omitempty"`      // FNV-1a of Text: stable statement identity across runs
	PlanDigest string        `json:"plan_digest,omitempty"` // FNV-1a of the static plan rendering, when the event log is on
	Duration   time.Duration `json:"duration_ns"`
	Rows       int           `json:"rows,omitempty"`       // answer cardinality (queries)
	Changes    int           `json:"changes,omitempty"`    // total mutations applied (exec/call)
	Skipped    []string      `json:"skipped,omitempty"`    // conjuncts skipped due to unreachable members
	Degraded   string        `json:"degraded,omitempty"`   // federation degraded report, deterministic rendering
	Member     string        `json:"member,omitempty"`     // member database name (breaker events)
	Workers    int           `json:"workers,omitempty"`    // parallelism degree the operation ran under (0 = sequential)
	PlanCache  string        `json:"plan_cache,omitempty"` // plan-cache outcome: hit / stale / miss / cold (queries)
	TraceID    string        `json:"trace_id,omitempty"`   // facade-minted trace ID shared with span trees and WAL commit spans
	Slow       bool          `json:"slow,omitempty"`       // duration exceeded the slow threshold
	Err        string        `json:"err,omitempty"`
}

// String renders the event as a human-oriented one-liner, as shown by
// the REPL's \flightrec and in auto-dumps.
func (e *Event) String() string { return e.format(false) }

// Redacted renders the event with timing-dependent fields (duration,
// slow marker) blanked, so dumps are byte-stable for golden tests.
func (e *Event) Redacted() string { return e.format(true) }

func (e *Event) format(redact bool) string {
	dur := e.Duration.String()
	if redact {
		dur = "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %-7s %s", e.Seq, e.Kind, dur)
	if e.Member != "" {
		fmt.Fprintf(&b, " member=%s", e.Member)
	}
	if e.Text != "" {
		fmt.Fprintf(&b, " %s", e.Text)
	}
	switch e.Kind {
	case KindQuery:
		if e.Err == "" {
			fmt.Fprintf(&b, " rows=%d", e.Rows)
		}
	case KindExec, KindCall:
		if e.Err == "" {
			fmt.Fprintf(&b, " changes=%d", e.Changes)
		}
	}
	if e.Workers > 0 {
		fmt.Fprintf(&b, " workers=%d", e.Workers)
	}
	if e.PlanCache != "" {
		fmt.Fprintf(&b, " plan=%s", e.PlanCache)
	}
	if len(e.Skipped) > 0 {
		fmt.Fprintf(&b, " skipped=[%s]", strings.Join(e.Skipped, "; "))
	}
	if e.Degraded != "" {
		fmt.Fprintf(&b, " degraded=%q", firstLine(e.Degraded))
	}
	if e.Slow && !redact {
		b.WriteString(" SLOW")
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Journaled reports whether events of this kind are replayable
// statements that belong in a workload journal.
func Journaled(kind string) bool {
	switch kind {
	case KindQuery, KindExec, KindCall, KindRule, KindClause:
		return true
	}
	return false
}

// Digest returns the 64-bit FNV-1a hash of s in fixed-width hex. It is
// the statement/plan identity used to join journal records, log events
// and span trees across runs without shipping full text everywhere.
// Journals on disk carry these digests, so the bits are fixed: FNV-1a's
// offset basis and prime, most significant nibble first.
func Digest(s string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		hexDigit = "0123456789abcdef"
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	var buf [16]byte
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = hexDigit[h&0xf]
		h >>= 4
	}
	return string(buf[:])
}
