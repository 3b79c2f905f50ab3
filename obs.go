package idl

import (
	"context"
	"fmt"
	"time"

	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/obs"
	"idl/internal/parser"
	"idl/internal/qlog"
)

// Observability facade. A DB can expose a metrics registry (counters,
// gauges, latency histograms across the engine, federation, and storage
// layers) and a hierarchical span tracer. Both are off by default.

type (
	// MetricsRegistry is a named collection of counters, gauges, and
	// latency histograms, safe for concurrent use.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time, sorted copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// QueryTracer retains the span trees of recent engine operations.
	QueryTracer = obs.Tracer
	// QuerySpan is one timed node in an operation's span tree.
	QuerySpan = obs.Span
	// SLOStatus is one SLO tracker's point-in-time report (burn rate,
	// window counts) as returned inside DB.Health().
	SLOStatus = obs.SLOStatus
	// WindowSnapshot is a rolling-window histogram's merged distribution.
	WindowSnapshot = obs.WindowSnapshot
	// ExplainPlan is a query evaluation plan; after ExplainAnalyze each
	// step also carries measured actuals.
	ExplainPlan = core.Explain
)

// Metrics returns the DB's metrics registry, creating it on first use
// and attaching it to the engine, the federation catalog, and storage
// operations. Subsequent calls return the same registry.
func (db *DB) Metrics() *MetricsRegistry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.metricsLocked()
}

// metricsLocked lazily creates, wires and publishes the registry;
// callers hold db.mu.
func (db *DB) metricsLocked() *obs.Registry {
	reg := db.metricsRef()
	if reg == nil {
		reg = obs.NewRegistry()
		db.engine.SetMetrics(reg)
		db.cat.SetMetrics(reg)
		db.wal.SetMetrics(reg)
		if db.snapshotBytes > 0 {
			reg.Gauge("storage.snapshot_bytes").Set(db.snapshotBytes)
		}
		stmts := newStmtMetrics(reg)
		db.configure(func(s *settings) { s.metrics, s.stmts = reg, stmts })
	}
	return reg
}

// kindMetrics are one statement kind's instruments: engine.<kind>.count,
// .errors and .latency (a cumulative histogram and a rolling window of
// one name), and the engine.<kind> SLO.
type kindMetrics struct {
	count, errors *obs.Counter
	latency       *obs.Histogram
	window        *obs.WindowedHistogram
	slo           *obs.SLOTracker
}

// stmtMetrics are the statement instruments of each kind, resolved once
// when the registry is attached, so that finish takes no registry lock
// and a kind no statement has run yet still reports.
type stmtMetrics struct{ query, exec, call kindMetrics }

func newStmtMetrics(reg *obs.Registry) *stmtMetrics {
	kind := func(k string) kindMetrics {
		name := "engine." + k
		return kindMetrics{
			count:   reg.Counter(name + ".count"),
			errors:  reg.Counter(name + ".errors"),
			latency: reg.Histogram(name + ".latency"),
			window:  reg.Window(name + ".latency"),
			slo:     reg.SLO(name, 0, 0), // registry defaults; SetSLO retunes
		}
	}
	return &stmtMetrics{query: kind(qlog.KindQuery), exec: kind(qlog.KindExec), call: kind(qlog.KindCall)}
}

// observe feeds one finished statement of the given kind, which took d
// and ended at end, to its kind's instruments; failed marks it bad.
func (m *stmtMetrics) observe(kind string, end time.Time, d time.Duration, failed bool) {
	k := &m.query
	switch kind {
	case qlog.KindExec:
		k = &m.exec
	case qlog.KindCall:
		k = &m.call
	}
	k.count.Inc()
	if failed {
		k.errors.Inc()
	}
	k.latency.Observe(d)
	k.window.Observe(end, d)
	k.slo.Observe(end, d, failed)
}

// metricsRef returns the registry without creating one (nil when
// metrics are off; all registry methods are nil-safe no-ops).
func (db *DB) metricsRef() *obs.Registry { return db.settings.Load().metrics }

// MetricsEnabled reports whether a metrics registry is attached,
// without attaching one (unlike Metrics, which lazily creates it).
func (db *DB) MetricsEnabled() bool {
	return db.metricsRef() != nil
}

// ResetMetrics zeroes every counter, gauge, and histogram (the
// instruments stay registered, so cached references remain valid). A
// no-op when metrics were never enabled.
func (db *DB) ResetMetrics() {
	db.metricsRef().Reset()
}

// EnableTracing attaches a span tracer retaining the last capacity root
// operations (queries, update requests, program calls, view
// materializations), each a tree of timed child spans. It returns the
// tracer for inspection; enabling replaces any previous tracer. When
// metrics are on, retention evictions count under "traces.dropped".
func (db *DB) EnableTracing(capacity int) *QueryTracer {
	t := obs.NewTracer(capacity)
	if reg := db.metricsRef(); reg != nil {
		t.SetDropCounter(reg.Counter("traces.dropped"))
	}
	db.setTracer(t)
	return t
}

// setTracer hands the engine and the statement pipeline the same tracer
// (nil detaches).
func (db *DB) setTracer(t *obs.Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.engine.SetTracer(t)
	db.configure(func(s *settings) { s.tracer = t })
}

// TraceRetention returns the tracer's ring bound (0 when tracing is
// off).
func (db *DB) TraceRetention() int {
	return db.Tracer().Capacity()
}

// TracesDropped reports how many finished span trees the retention
// bound has evicted since tracing was enabled (0 when off).
func (db *DB) TracesDropped() uint64 {
	return db.Tracer().Dropped()
}

// DisableTracing detaches the tracer.
func (db *DB) DisableTracing() {
	db.setTracer(nil)
}

// Tracer returns the attached tracer, or nil when tracing is off.
func (db *DB) Tracer() *QueryTracer { return db.settings.Load().tracer }

// LastSyncReport returns the member-health report of the most recent
// federation sync (nil before any sync or when no members are mounted).
// Unlike Result.Degraded it is present even when all members were
// reachable.
func (db *DB) LastSyncReport() *DegradedReport {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastReport
}

// ExplainAnalyze executes the query and renders its plan annotated with
// per-conjunct actuals: rows produced, set elements scanned, index
// probes, and self evaluation time (excluding downstream conjuncts).
// With federated members mounted, a best-effort sync runs first.
func (db *DB) ExplainAnalyze(src string) (string, error) {
	plan, _, err := db.ExplainAnalyzeCtx(context.Background(), src)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// ExplainAnalyzeCtx is ExplainAnalyze under a context, returning the
// structured plan and the query's answer.
func (db *DB) ExplainAnalyzeCtx(ctx context.Context, src string) (*ExplainPlan, *Result, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, nil, err
	}
	if db.engine.IsUpdate(q) {
		return nil, nil, fmt.Errorf("idl: %q is an update request; explain analyze runs queries only", src)
	}
	rep, err := db.syncSources(ctx, true)
	if err != nil {
		return nil, nil, err
	}
	plan, ans, err := db.engine.ExplainAnalyzeQuery(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	degrade(parser.Stmt{Query: q}, ans, rep)
	return plan, ans, nil
}

// MeteredSource wraps a source so every operation against it is counted
// and timed under federation.member.<name>.* in reg; resilience probes
// (breaker state, retry attempts) pass through. Mount applies this
// automatically — the explicit wrapper is for sources used outside a DB.
func MeteredSource(name string, inner Source, reg *MetricsRegistry) Source {
	return federation.Meter(name, inner, reg)
}
