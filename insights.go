package idl

import (
	"fmt"
	"hash/fnv"

	"idl/internal/insights"
	"idl/internal/qlog"
)

// Query insights facade. When enabled, every query, update request and
// program call folds into a statement digest keyed by its AST
// fingerprint — the same structural key the plan cache uses — so the
// workload condenses into one record per query shape with call/error
// counts, a rolling latency window, plan-cache outcome tallies, and the
// evaluator's per-operation resource accounting (rows scanned, tuples
// emitted, fixpoint rounds, index work, federation fetches, WAL bytes).
// Statements that cross the configured absolute or self-relative
// latency threshold capture an exemplar: the facade-minted trace ID,
// the correlated span tree (when tracing is on), and a flight-recorder
// excerpt.

type (
	// InsightsConfig tunes the statement-digest store (see
	// insights.Config for field semantics and defaults).
	InsightsConfig = insights.Config
	// StatementDigest is one statement shape's accumulated record.
	StatementDigest = insights.Digest
	// StatementExemplar is one captured slow execution.
	StatementExemplar = insights.Exemplar
	// StatementResources is the per-digest resource-accounting record.
	StatementResources = insights.Resources
)

// exemplarEventTail bounds the flight-recorder excerpt attached to a
// captured exemplar.
const exemplarEventTail = 8

// EnableInsights attaches a statement-digest store with cfg (zero
// fields take the package defaults; the zero Config is a sensible
// production setting with capture off). Enabling replaces any previous
// store and its accumulated digests.
func (db *DB) EnableInsights(cfg InsightsConfig) {
	store := insights.New(cfg)
	store.SetCaptureSource(db.captureContext)
	db.configure(func(s *settings) { s.insights = store })
}

// InsightsEnabled reports whether a digest store is attached.
func (db *DB) InsightsEnabled() bool { return db.insightsRef() != nil }

// insightsRef returns the attached store without creating one (nil when
// insights are off).
func (db *DB) insightsRef() *insights.Store { return db.settings.Load().insights }

// Statements returns every tracked statement digest, ordered by
// descending total evaluation time. It fails when insights are not
// enabled (call EnableInsights), mirroring Traces.
func (db *DB) Statements() ([]StatementDigest, error) {
	s := db.insightsRef()
	if s == nil {
		return nil, fmt.Errorf("idl: insights are not enabled (call EnableInsights)")
	}
	return s.Digests(), nil
}

// TopStatements returns the k highest digests ordered by "calls",
// "p99", "rows" (rows scanned), or "time" (total evaluation time);
// k <= 0 returns all.
func (db *DB) TopStatements(k int, by string) ([]StatementDigest, error) {
	s := db.insightsRef()
	if s == nil {
		return nil, fmt.Errorf("idl: insights are not enabled (call EnableInsights)")
	}
	return s.Top(k, by)
}

// Statement looks up one digest by its 16-hex fingerprint, returning
// the digest and its captured slow-query exemplars (oldest first).
func (db *DB) Statement(fingerprint string) (StatementDigest, []StatementExemplar, error) {
	s := db.insightsRef()
	if s == nil {
		return StatementDigest{}, nil, fmt.Errorf("idl: insights are not enabled (call EnableInsights)")
	}
	fp, err := insights.ParseFingerprint(fingerprint)
	if err != nil {
		return StatementDigest{}, nil, err
	}
	d, exs, ok := s.Get(fp)
	if !ok {
		return StatementDigest{}, nil, fmt.Errorf("idl: no statement with fingerprint %s", fingerprint)
	}
	return d, exs, nil
}

// StatementsDropped reports observations of new statement shapes the
// MaxDigests bound discarded (0 when insights are off).
func (db *DB) StatementsDropped() uint64 {
	if s := db.insightsRef(); s != nil {
		return s.Dropped()
	}
	return 0
}

// ResetStatements drops every digest and exemplar, keeping the store
// attached. A no-op when insights were never enabled.
func (db *DB) ResetStatements() {
	if s := db.insightsRef(); s != nil {
		s.Reset()
	}
}

// captureContext is the store's exemplar source: the retained span tree
// whose root carries the trace ID, and the tail of the flight-recorder
// ring leading up to the capture.
func (db *DB) captureContext(traceID string) (*QuerySpan, []*qlog.Event) {
	var root *QuerySpan
	if t := db.Tracer(); t != nil && traceID != "" {
		for _, s := range t.Recent() {
			for _, a := range s.Attrs {
				if a.Key == "trace" && a.Str == traceID {
					root = s
				}
			}
		}
	}
	return root, db.rec.Tail(exemplarEventTail)
}

// callFingerprint identifies a program call by its target: calls have
// no query AST, so the digest key is an FNV-1a hash of the program's
// namespace-qualified name — every invocation of one program is one
// shape, regardless of parameter values.
func callFingerprint(namespace, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("call:"))
	h.Write([]byte(namespace))
	h.Write([]byte("."))
	h.Write([]byte(name))
	return h.Sum64()
}
