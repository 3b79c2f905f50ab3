package idl

import (
	"context"
	"fmt"
	"time"

	"idl/internal/ast"
	"idl/internal/federation"
	"idl/internal/parser"
	"idl/internal/qlog"
	"idl/internal/wal"
)

// Federated member databases. A DB can mount autonomous members behind
// the federation.Source interface; their contents are synced into the
// universe as read-only snapshots before each query or update request.
// Failure semantics are governed by Options.BestEffort: fail fast (the
// default — an unreachable member aborts with a *SourceError, preserving
// single-site behavior) or degrade gracefully (the member evaluates as
// empty and the answer carries a DegradedReport). Updates always fail
// fast, and update requests that target a member snapshot are rejected —
// members are administered autonomously, not through the federation.

type (
	// Source is a member database: a named set of relations that can be
	// listed and scanned under a context.
	Source = federation.Source
	// FederationConfig tunes the resilience stack Resilient composes:
	// per-attempt timeout, retry count and backoff, breaker threshold and
	// cooldown.
	FederationConfig = federation.Config
	// DegradedReport describes a best-effort answer's degradation: every
	// member's health and the conjuncts that were skipped.
	DegradedReport = federation.Report
	// SourceHealth is one member's entry in a DegradedReport.
	SourceHealth = federation.SourceHealth
	// SourceError is the typed failure of a fail-fast federation
	// operation, naming the member and operation that failed.
	SourceError = federation.SourceError
)

// NewMemorySource wraps an in-memory database tuple (relation name →
// set) as a Source — the reference member implementation, and the base
// layer fault injection wraps in tests and the CLI's chaos mode.
func NewMemorySource(name string, db *Tuple) Source {
	return federation.NewMemorySource(name, db)
}

// Resilient wraps a source with the full resilience stack: circuit
// breaker outermost, then retries with capped exponential backoff, then
// a per-attempt timeout.
func Resilient(inner Source, cfg FederationConfig) Source {
	return federation.Resilient(inner, cfg)
}

// DefaultFederationConfig returns the production resilience defaults.
func DefaultFederationConfig() FederationConfig { return federation.DefaultConfig() }

// Mount attaches a member database under name (the source's own name
// when empty). Its relations appear after the next query or an explicit
// Sync. Member snapshots are read-only: update requests targeting them
// fail.
func (db *DB) Mount(name string, src Source) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if src != nil {
		// Breaker transitions surface as flight-recorder events (an open
		// triggers an auto-dump). The hook installs on the raw source:
		// the Meter wrapper below forwards probes but not hooks.
		if h, ok := src.(federation.BreakerHooker); ok {
			rec := db.rec
			h.SetBreakerHook(func(member string, from, to federation.BreakerState) {
				rec.BreakerTransition(member, from.String(), to.String())
			})
		}
		// Mounting turns metrics on: federated deployments want member
		// health visible, and the registry also meters every operation
		// against this source under federation.member.<name>.*.
		src = federation.Meter(name, src, db.metricsLocked())
	}
	if err := db.cat.Mount(name, src); err != nil {
		return err
	}
	db.engine.SetReadOnly(db.cat.Sources())
	return nil
}

// Unmount detaches a member database and removes its snapshot.
func (db *DB) Unmount(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.Unmount(name); err != nil {
		return err
	}
	db.engine.SetReadOnly(db.cat.Sources())
	db.engine.SetUnavailable(nil)
	return nil
}

// Sources lists the mounted member database names, sorted.
func (db *DB) Sources() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.cat.Sources()
}

// Sync refreshes every member snapshot immediately, without running a
// query. In best-effort mode it returns the health report; in fail-fast
// mode an unreachable member returns a *SourceError.
func (db *DB) Sync(ctx context.Context) (*DegradedReport, error) {
	return db.syncSources(ctx, db.engine.Options().BestEffort)
}

// syncSources refreshes member snapshots under db.mu (fetches do not
// hold the engine lock, so concurrent queries proceed) and records which
// members are unavailable for Explain's skip marks. nil report when no
// sources are mounted.
func (db *DB) syncSources(ctx context.Context, bestEffort bool) (*federation.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// The mount-set check happens under db.mu: Mount/Unmount mutate the
	// catalog under the same lock, and a concurrent Mount must not race
	// the read.
	if !db.cat.HasSources() {
		return nil, nil
	}
	op := db.rec.Begin(qlog.KindSync)
	rep, err := db.cat.SyncSources(ctx, bestEffort)
	if err != nil {
		op.End(err)
		return nil, err
	}
	db.lastReport = rep
	db.engine.SetUnavailable(rep.Unavailable())
	if op != nil {
		down := rep.Unavailable()
		op.SetText(fmt.Sprintf("members=%d unreachable=%d", len(rep.Sources), len(down)))
		if rep.Degraded() {
			op.SetDegraded(rep.String(), nil)
		}
		op.End(nil)
	}
	return rep, nil
}

// queryParsed is the shared query path: sync member snapshots under the
// configured failure mode, evaluate, and attach the degradation report
// (with skipped conjuncts) to the answer when members were unreachable.
func (db *DB) queryParsed(ctx context.Context, q *ast.Query) (*Result, error) {
	return db.runQueryOp(ctx, q, func(ctx context.Context) (*Result, error) {
		return db.engine.QueryCtx(ctx, q)
	})
}

// runQueryOp wraps one read-only evaluation (ad hoc or prepared) with
// the shared query machinery: the flight-recorder op, member sync under
// the configured failure mode, degradation reporting, and answer/plan
// annotations.
func (db *DB) runQueryOp(ctx context.Context, q *ast.Query, eval func(context.Context) (*Result, error)) (*Result, error) {
	ins := db.insightsRef()
	op := db.rec.Begin(qlog.KindQuery)
	tracer := db.engine.Tracer()
	var tid string
	if op != nil || tracer != nil || (ins != nil && ins.CaptureEnabled()) {
		// The trace ID joins this query's event, journal record, span
		// tree, member fetches, WAL commits and slow-query exemplars
		// across layers. A ctx already carrying an ID (the wire server's
		// X-Trace-Id adoption) keeps it.
		tid = db.traceIDFor(ctx)
		op.SetTraceID(tid)
		if op == nil {
			ctx = qlog.WithTraceID(ctx, tid)
		}
	}
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	if op != nil {
		op.SetText(q.String())
		op.SetWorkers(db.engine.Workers())
		// Tag the context only when a tracer will consume the IDs: the
		// tag upgrades a Background context into a value-carrying one,
		// which the evaluator then polls.
		if tracer != nil {
			ctx = op.Context(ctx)
		}
	}
	rep, err := db.syncSources(ctx, db.engine.Options().BestEffort)
	if err != nil {
		op.End(err)
		db.observeQuery(ins, q, start, tid, nil, nil, err)
		return nil, err
	}
	ans, err := eval(ctx)
	if err != nil {
		op.End(err)
		db.observeQuery(ins, q, start, tid, nil, rep, err)
		return nil, err
	}
	if ans.Plan != nil {
		op.SetPlanCache(ans.Plan.Cache)
	}
	if rep != nil && rep.Degraded() {
		rep.Skipped = skippedConjuncts(q, rep)
		ans.Degraded = rep
		db.metricsRef().Counter("federation.degraded_answers").Inc()
		op.SetDegraded(rep.String(), rep.Skipped)
	}
	if op != nil {
		if op.Journaling() {
			// The journal carries the full canonical answer so replay can
			// byte-compare; the ring and log carry only the cardinality.
			op.SetAnswer(ans.String(), ans.Len())
		} else {
			op.SetRows(ans.Len())
		}
		if op.Logging() {
			if plan, perr := db.engine.ExplainQuery(q); perr == nil {
				op.SetPlanDigest(plan.String())
			}
		}
		op.End(nil)
	}
	// Observed after op.End, so the journal record exists and the root
	// span is filed before any slow-query exemplar goes looking for them.
	db.observeQuery(ins, q, start, tid, ans, rep, nil)
	return ans, nil
}

// execParsed is the shared update path. Updates are all-or-nothing, so
// the sync is always fail-fast regardless of Options.BestEffort: an
// unreachable member aborts the request before any mutation.
func (db *DB) execParsed(ctx context.Context, q *ast.Query) (*ExecInfo, error) {
	ins := db.insightsRef()
	op := db.rec.Begin(qlog.KindExec)
	tracer := db.engine.Tracer()
	var tid string
	if op != nil || tracer != nil || (ins != nil && ins.CaptureEnabled()) {
		tid = db.traceIDFor(ctx)
		op.SetTraceID(tid)
		if op == nil {
			ctx = qlog.WithTraceID(ctx, tid)
		}
	}
	if op != nil {
		op.SetText(q.String())
		op.SetWorkers(db.engine.Workers())
		if tracer != nil {
			ctx = op.Context(ctx)
		}
	}
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	if _, err := db.syncSources(ctx, false); err != nil {
		op.End(err)
		if ins != nil {
			db.observeExec(ins, ast.Fingerprint(q), "exec", q.String, start, tid, nil, 0, err)
		}
		return nil, err
	}
	var info *ExecInfo
	var err error
	var walBytes int
	if db.wal != nil {
		// Commit protocol: apply, then append, under one lock so the log's
		// record order is the apply order. A failed append poisons the log
		// and surfaces here — the mutation is in memory but not durable,
		// and no later mutation will be acknowledged either.
		db.walCommit.Lock()
		info, err = db.engine.ExecuteCtx(ctx, q)
		if err == nil {
			payload := []byte(q.String())
			if err = db.walAppendTraced(ctx, wal.TypeExec, payload); err == nil {
				walBytes = len(payload)
			}
		}
		db.walCommit.Unlock()
	} else {
		info, err = db.engine.ExecuteCtx(ctx, q)
	}
	if info != nil {
		sum, changes := execSummary(info)
		op.SetExec(sum, changes)
	}
	op.End(err)
	if ins != nil {
		db.observeExec(ins, ast.Fingerprint(q), "exec", q.String, start, tid, info, walBytes, err)
	}
	return info, err
}

// skippedConjuncts lists the query's top-level conjuncts that reference
// an unreachable member database — in best-effort mode they evaluate
// against an empty member and contribute nothing.
func skippedConjuncts(q *ast.Query, rep *federation.Report) []string {
	down := map[string]bool{}
	for _, name := range rep.Unavailable() {
		down[name] = true
	}
	var out []string
	for _, c := range q.Body.Conjuncts {
		a, ok := c.(*ast.AttrExpr)
		if !ok {
			continue
		}
		if name, ok := constStr(a.Name); ok && down[name] {
			out = append(out, c.String())
		}
	}
	return out
}

// QueryCtx is Query under a context: evaluation observes cancellation
// and deadlines, and mounted member databases are synced before the
// query runs.
func (db *DB) QueryCtx(ctx context.Context, src string) (*Result, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if ast.HasUpdate(q.Body) {
		return nil, fmt.Errorf("idl: %q is an update request; use Exec", src)
	}
	return db.queryParsed(ctx, q)
}

// ExecCtx is Exec under a context. Member sync is always fail-fast:
// updates are atomic, so an unreachable member aborts the request.
func (db *DB) ExecCtx(ctx context.Context, src string) (*ExecInfo, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.execParsed(ctx, q)
}

// LoadCtx is Load under a context; each executed statement syncs member
// snapshots first, so a scripted chaos schedule manifests per statement.
func (db *DB) LoadCtx(ctx context.Context, src string) ([]*ScriptResult, error) {
	stmts, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	var out []*ScriptResult
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.Rule:
			err := db.engine.AddRule(s)
			db.rec.Emit(qlog.KindRule, s.String(), err)
			if err == nil {
				_, err = db.walAppend(wal.TypeRule, []byte(s.String()))
			}
			if err != nil {
				return out, fmt.Errorf("idl: rule %q: %w", s.String(), err)
			}
			out = append(out, &ScriptResult{Statement: s.String(), Kind: "rule"})
		case *ast.Clause:
			err := db.engine.AddClause(s)
			db.rec.Emit(qlog.KindClause, s.String(), err)
			if err == nil {
				_, err = db.walAppend(wal.TypeClause, []byte(s.String()))
			}
			if err != nil {
				return out, fmt.Errorf("idl: clause %q: %w", s.String(), err)
			}
			out = append(out, &ScriptResult{Statement: s.String(), Kind: "clause"})
		case *ast.Query:
			if ast.HasUpdate(s.Body) || db.isProgramCall(s) {
				info, err := db.execParsed(ctx, s)
				if err != nil {
					return out, fmt.Errorf("idl: request %q: %w", s.String(), err)
				}
				out = append(out, &ScriptResult{Statement: s.String(), Kind: "exec", Exec: info})
			} else {
				ans, err := db.queryParsed(ctx, s)
				if err != nil {
					return out, fmt.Errorf("idl: query %q: %w", s.String(), err)
				}
				out = append(out, &ScriptResult{Statement: s.String(), Kind: "query", Answer: ans})
			}
		}
	}
	return out, nil
}
