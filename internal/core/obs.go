package core

import (
	"context"
	"time"

	"idl/internal/ast"
	"idl/internal/obs"
	"idl/internal/qlog"
)

// opMetrics are one operation kind's instruments (query / exec / call),
// resolved once at SetMetrics time so the hot paths never take the
// registry lock.
type opMetrics struct {
	count   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
	window  *obs.WindowedHistogram
	slo     *obs.SLOTracker
}

// engineMetrics caches every engine-level metric pointer. A nil
// *engineMetrics means no registry is attached; operation paths check
// that single pointer.
type engineMetrics struct {
	query opMetrics
	exec  opMetrics
	call  opMetrics

	elementsScanned *obs.Counter
	indexProbes     *obs.Counter
	indexCandidates *obs.Counter
	indexBuilds     *obs.Counter
	attrEnums       *obs.Counter

	matCount        *obs.Counter
	matDelta        *obs.Counter
	matIterations   *obs.Counter
	matRuleRuns     *obs.Counter
	matFactsDerived *obs.Counter
	matCandidates   *obs.Counter
	matLatency      *obs.Histogram

	programCalls *obs.Counter

	// Parallel evaluation instruments (parallel.go): how many workers
	// are evaluating right now, how many scan partitions and parallel
	// operations were dispatched, and how long chunk-order merges take.
	workerBusy   *obs.Gauge
	partitions   *obs.Counter
	parallelOps  *obs.Counter
	mergeLatency *obs.Histogram

	// Plan-cache instruments (plan.go): cache hits (including stale
	// revalidations), misses (fresh compiles), LRU evictions, and how
	// long each compile took.
	planCacheHit   *obs.Counter
	planCacheMiss  *obs.Counter
	planCacheEvict *obs.Counter
	planCompile    *obs.Histogram

	// MVCC instruments (version.go): how many snapshot versions are
	// retained and their estimated logical footprint.
	mvccLiveVersions  *obs.Gauge
	mvccRetainedBytes *obs.Gauge
}

func opMetricsFor(r *obs.Registry, op string) opMetrics {
	return opMetrics{
		count:   r.Counter("engine." + op + ".count"),
		errors:  r.Counter("engine." + op + ".errors"),
		latency: r.Histogram("engine." + op + ".latency"),
		window:  r.Window("engine." + op + ".latency"),
		slo:     r.SLO("engine."+op, 0, 0), // registry defaults
	}
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	return &engineMetrics{
		query:           opMetricsFor(r, "query"),
		exec:            opMetricsFor(r, "exec"),
		call:            opMetricsFor(r, "call"),
		elementsScanned: r.Counter("engine.eval.elements_scanned"),
		indexProbes:     r.Counter("engine.eval.index_probes"),
		indexCandidates: r.Counter("engine.eval.index_candidates"),
		indexBuilds:     r.Counter("engine.eval.index_builds"),
		attrEnums:       r.Counter("engine.eval.attr_enums"),
		matCount:        r.Counter("engine.materialize.count"),
		matDelta:        r.Counter("engine.materialize.delta"),
		matIterations:   r.Counter("engine.materialize.iterations"),
		matRuleRuns:     r.Counter("engine.materialize.rule_runs"),
		matFactsDerived: r.Counter("engine.materialize.facts_derived"),
		matCandidates:   r.Counter("engine.materialize.decree_candidates"),
		matLatency:      r.Histogram("engine.materialize.latency"),
		programCalls:    r.Counter("engine.program.calls"),
		workerBusy:      r.Gauge("engine.eval.worker_busy"),
		partitions:      r.Counter("engine.eval.partitions"),
		parallelOps:     r.Counter("engine.eval.parallel_ops"),
		mergeLatency:    r.Histogram("engine.eval.merge_latency"),
		planCacheHit:    r.Counter("engine.plan.cache_hit"),
		planCacheMiss:   r.Counter("engine.plan.cache_miss"),
		planCacheEvict:  r.Counter("engine.plan.evict"),
		planCompile:     r.Histogram("engine.plan.compile_ns"),

		mvccLiveVersions:  r.Gauge("mvcc.live_versions"),
		mvccRetainedBytes: r.Gauge("mvcc.retained_bytes"),
	}
}

// record publishes one finished operation.
func (em *engineMetrics) record(om *opMetrics, start time.Time, local Stats, err error) {
	om.count.Inc()
	if err != nil {
		om.errors.Inc()
	}
	d := time.Since(start)
	om.latency.Observe(d)
	om.window.Observe(d)
	om.slo.Observe(d, err != nil)
	em.evalWork(local)
}

// evalWork publishes evaluator counters accumulated by one operation.
func (em *engineMetrics) evalWork(local Stats) {
	em.elementsScanned.Add(local.ElementsScanned)
	em.indexProbes.Add(local.IndexProbes)
	em.indexCandidates.Add(local.IndexCandidates)
	em.indexBuilds.Add(local.IndexBuilds)
	em.attrEnums.Add(local.AttrEnums)
}

// SetMetrics attaches a metrics registry (nil detaches). Operations
// publish counts, error counts, latency histograms and evaluator work
// under the engine.* namespace. The published MVCC head is dropped
// because snapshots capture the metric hooks they report through.
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = r
	e.em = newEngineMetrics(r)
	e.invalidateHead()
}

// Metrics returns the attached registry, possibly nil.
func (e *Engine) Metrics() *obs.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

// SetTracer attaches a span tracer (nil detaches). Traced operations
// build hierarchical spans: queries get per-conjunct children, view
// materializations per-round children, update requests a program call
// tree. The published MVCC head is dropped because snapshots capture the
// tracer their readers file spans into.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = t
	e.invalidateHead()
}

// Tracer returns the attached tracer, possibly nil.
func (e *Engine) Tracer() *obs.Tracer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tracer
}

// annotateOpID joins a span to the flight-recorder event that opened
// the operation: when the caller's context carries a qlog op ID, the
// span gets a "qid" annotation matching the event's sequence number, so
// a trace tree can be correlated with the query journal and event log.
func annotateOpID(span *obs.Span, ctx context.Context) {
	if span == nil {
		return
	}
	if qid := qlog.OpID(ctx); qid != 0 {
		span.SetInt("qid", int64(qid))
	}
	if tid := qlog.TraceID(ctx); tid != "" {
		span.SetStr("trace", tid)
	}
}

// attachConjunctSpans converts analyze probes into per-conjunct child
// spans, in source order. Durations are each conjunct's self time. Labels
// render the read's own literals, not those of the statement its shared
// plan was compiled for.
func attachConjunctSpans(span *obs.Span, an *bodyAnalysis, probes map[ast.Expr]*conjunctProbe) {
	var lits *Env
	if len(an.sc.lits) > 0 {
		lits = an.newEnv()
	}
	for _, c := range an.body.Conjuncts {
		p := probes[c]
		if p == nil {
			continue
		}
		label := c
		if lits != nil {
			label = unlift(c, lits)
		}
		span.AddChild(conjunctLabel(label), p.selfTime).
			SetInt("rows", int64(p.rows)).
			SetInt("scanned", int64(p.scanned)).
			SetInt("index_probes", int64(p.indexProbes))
	}
}

// conjunctLabel renders a conjunct for span trees, truncated so one
// monster conjunct cannot flood the output.
func conjunctLabel(c ast.Expr) string {
	s := c.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// newProbes registers an analyze probe per top-level conjunct.
func newProbes(conjuncts []ast.Expr) map[ast.Expr]*conjunctProbe {
	probes := make(map[ast.Expr]*conjunctProbe, len(conjuncts))
	for _, c := range conjuncts {
		probes[c] = &conjunctProbe{}
	}
	return probes
}
