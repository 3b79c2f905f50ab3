package idl

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"idl/internal/ast"
	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/insights"
	"idl/internal/obs"
	"idl/internal/parser"
	"idl/internal/qlog"
	"idl/internal/wal"
)

// The statement pipeline (DESIGN.md "Statement pipeline"). The paper's
// three statement forms — queries (§4), update requests (§5) and
// update-program calls (§7) — each make one trip through the facade as
// one op: begin reads the published settings and opens the record, the
// statement syncs members and evaluates (writes through commit), and
// finish closes the record and feeds every observer in a fixed order.

// settings is everything a statement reads of the facade's
// configuration. It is published as one immutable value, so a statement
// loads it once — no db.mu, no engine mutex — and sees one consistent
// set of observers for its whole trip.
type settings struct {
	insights   *insights.Store // nil = digests off
	metrics    *obs.Registry   // nil = metrics off (registry methods are nil-safe)
	tracer     *obs.Tracer     // nil = tracing off; the engine holds the same one
	workers    int
	bestEffort bool
	mounted    bool // a member database is mounted: statements sync first
}

// configure publishes an edited copy of the settings.
func (db *DB) configure(edit func(*settings)) {
	for {
		old := db.settings.Load()
		s := *old
		edit(&s)
		if db.settings.CompareAndSwap(old, &s) {
			return
		}
	}
}

// op is one statement's request-scoped record: created once by begin,
// filled in by the statement, closed once by finish.
type op struct {
	db    *DB
	set   *settings
	ctx   context.Context // the caller's, tagged with the trace/op IDs when something below joins on them
	rec   *qlog.Op        // nil when no recorder sink is attached
	kind  string          // qlog.KindQuery / KindExec / KindCall; the digest kind too
	tid   string          // "" when nothing would carry it
	start time.Time       // zero when insights are off
	q     *ast.Query      // nil for a program call, which fills text and fp instead
	text  string
	fp    uint64

	// The outcome, set by the statement before finish.
	rep      *federation.Report // a query's member sync report
	ans      *Result
	info     *ExecInfo
	walBytes int // payload bytes the commit appended
}

// begin opens a statement's op. The trace ID joins the statement's
// event, journal record, span tree, member fetches, WAL commit and
// slow-query exemplars across layers; it is minted only when one of them
// will carry it, and a ctx already tagged with one (the wire server's
// X-Trace-Id adoption) keeps it.
func (db *DB) begin(ctx context.Context, kind string, q *ast.Query) *op {
	set := db.settings.Load()
	o := &op{db: db, set: set, kind: kind, q: q, rec: db.rec.Begin(kind)}
	if o.rec != nil || set.tracer != nil || (set.insights != nil && set.insights.CaptureEnabled()) {
		o.tid = db.traceIDFor(ctx)
		o.rec.SetTraceID(o.tid)
		if o.rec == nil {
			ctx = qlog.WithTraceID(ctx, o.tid)
		} else if set.tracer != nil {
			// Tag the context only when a tracer will consume the IDs: the
			// tag upgrades a Background context into a value-carrying one,
			// which the evaluator then polls.
			ctx = o.rec.Context(ctx)
		}
	}
	if set.insights != nil {
		o.start = time.Now()
	}
	if o.rec != nil && q != nil {
		o.rec.SetText(q.String())
		o.rec.SetWorkers(set.workers)
	}
	o.ctx = ctx
	return o
}

// statement renders the op's statement in IDL surface syntax: the text
// of its event and journal record, its WAL payload, and (on demand) its
// digest's label.
func (o *op) statement() string {
	if o.q != nil {
		return o.q.String()
	}
	return o.text
}

// finish closes the op, in a fixed order: fill the record from the
// outcome; End it, which publishes the event to the flight recorder,
// the event log and the journal; fold the statement into its digest —
// after End, so the journal record exists and the root span is filed
// before a slow-query exemplar goes looking for them; count a degraded
// answer. It returns err for the entry point to pass on.
func (o *op) finish(err error) error {
	degraded := false
	if ans := o.ans; ans != nil {
		if ans.Plan != nil {
			o.rec.SetPlanCache(ans.Plan.Cache)
		}
		if degraded = degrade(o.q, ans, o.rep); degraded {
			o.rec.SetDegraded(o.rep.String(), o.rep.Skipped)
		}
		if o.rec.Journaling() {
			// The journal carries the full canonical answer so replay can
			// byte-compare; the ring and log carry only the cardinality.
			o.rec.SetAnswer(ans.String(), ans.Len())
		} else {
			o.rec.SetRows(ans.Len())
		}
	}
	if o.info != nil {
		o.rec.SetExec(execSummary(o.info))
	}
	o.rec.End(err)
	if ins := o.set.insights; ins != nil {
		ins.Observe(o.observation(err))
	}
	if degraded {
		o.set.metrics.Counter("federation.degraded_answers").Inc()
	}
	return err
}

// observation is the op as its digest sees it. The key is the shape
// fingerprint the planner already computed when there is a plan, the
// statement's own otherwise; the evaluator's resource record is widened
// with what only the facade knows — member fetches and WAL bytes.
func (o *op) observation(err error) insights.Observation {
	ob := insights.Observation{
		Fingerprint: o.fp,
		Kind:        o.kind,
		Text:        o.statement,
		Duration:    time.Since(o.start),
		Err:         err != nil,
		TraceID:     o.tid,
	}
	var res core.Resources
	var plan *core.PlanInfo
	switch {
	case o.ans != nil:
		res, plan = o.ans.Resources, o.ans.Plan
		ob.Degraded = o.ans.Degraded != nil
	case o.info != nil:
		res = o.info.Resources
	}
	switch {
	case plan != nil:
		ob.PlanCache, ob.Fingerprint = plan.Cache, plan.Fingerprint
	case o.q != nil:
		ob.Fingerprint = ast.Fingerprint(o.q)
	}
	ob.Resources = insights.Resources{
		RowsScanned:    res.RowsScanned,
		TuplesEmitted:  res.TuplesEmitted,
		FixpointRounds: res.FixpointRounds,
		IndexBuilds:    res.IndexBuilds,
		IndexProbes:    res.IndexProbes,
		WALBytes:       uint64(o.walBytes),
	}
	if o.rep != nil {
		ob.Resources.FedFetches = uint64(len(o.rep.Sources))
	}
	return ob
}

// commit applies one logged mutation. On a durable DB the apply and the
// append are one critical section of walCommit — the lock catalog DDL
// and member-snapshot installs also hold from apply to append (OpenWAL
// hands it to the catalog) — so the log's record order is the apply
// order, whatever mix of requests, calls, registrations and DDL races.
// A failed append poisons the log and surfaces here: the mutation is in
// memory but not durable, and no later mutation will be acknowledged
// either. It returns the payload bytes appended. tracer (nil = off) puts
// the append under a wal.commit span.
func (db *DB) commit(ctx context.Context, tracer *obs.Tracer, typ byte, payload func() string, apply func() error) (int, error) {
	if db.wal == nil {
		return 0, apply()
	}
	db.walCommit.Lock()
	defer db.walCommit.Unlock()
	if err := apply(); err != nil {
		return 0, err
	}
	p := []byte(payload())
	if err := db.walAppendTraced(ctx, tracer, typ, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Query evaluates a pure query (the leading `?` is optional) against the
// effective universe — base databases plus materialized views. Mounted
// member databases (see Mount) are synced first.
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryCtx(context.Background(), src)
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
	return db.query(ctx, q, nil)
}

// query runs one read-only statement, ad hoc or prepared (p non-nil):
// sync member snapshots under the configured failure mode, evaluate, and
// let finish attach the degradation report (with skipped conjuncts) when
// members were unreachable. A logged read also hands back the static plan
// it ran, and its event's plan digest is that plan's: nothing else is
// looked up or compiled for it.
func (db *DB) query(ctx context.Context, q *ast.Query, p *core.PreparedQuery) (*Result, error) {
	o := db.begin(ctx, qlog.KindQuery, q)
	var err error
	if o.rep, err = db.syncSources(o.ctx, o.set.bestEffort); err == nil {
		var plan *core.Explain
		o.ans, plan, err = db.engine.ReadCtx(o.ctx, q, p, o.rec.Logging())
		if plan != nil {
			o.rec.SetPlanDigest(plan.String())
		}
	}
	return o.ans, o.finish(err)
}

// degrade marks ans as a best-effort answer when rep says members were
// unreachable: the report, completed with the query's skipped conjuncts,
// rides on the answer. It reports whether it did.
func degrade(q *ast.Query, ans *Result, rep *federation.Report) bool {
	if rep == nil || !rep.Degraded() {
		return false
	}
	rep.Skipped = skippedConjuncts(q, rep)
	ans.Degraded = rep
	return true
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

// Exec runs an update request: a conjunction of query expressions, update
// expressions, and update-program calls, executed left to right under a
// shared substitution bag. Requests are atomic.
func (db *DB) Exec(src string) (*ExecInfo, error) {
	return db.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec under a context. Member sync is always fail-fast:
// updates are atomic, so an unreachable member aborts the request.
func (db *DB) ExecCtx(ctx context.Context, src string) (*ExecInfo, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.exec(ctx, q)
}

// exec runs one update request.
func (db *DB) exec(ctx context.Context, q *ast.Query) (*ExecInfo, error) {
	o := db.begin(ctx, qlog.KindExec, q)
	return o.write(func() (*ExecInfo, error) { return db.engine.ExecuteCtx(o.ctx, q) })
}

// write runs the mutating half of an update request or program call and
// finishes the op. Updates are all-or-nothing, so the member sync is
// fail-fast regardless of Options.BestEffort — an unreachable member
// aborts before any mutation — and apply and log are one commit.
func (o *op) write(apply func() (*ExecInfo, error)) (*ExecInfo, error) {
	_, err := o.db.syncSources(o.ctx, false)
	if err == nil {
		o.walBytes, err = o.db.commit(o.ctx, o.set.tracer, wal.TypeExec, o.statement, func() (err error) {
			o.info, err = apply()
			return err
		})
	}
	return o.info, o.finish(err)
}

// Call invokes a named update program with parameter bindings keyed by
// the program's head variables. Values may be Go literals or Values.
func (db *DB) Call(namespace, name string, params map[string]any) (*ExecInfo, error) {
	return db.CallCtx(context.Background(), namespace, name, params)
}

// CallCtx is Call under a context: member sync and program execution
// observe cancellation and deadlines, and a ctx already tagged with a
// trace ID (the wire server's X-Trace-Id adoption) keeps it.
func (db *DB) CallCtx(ctx context.Context, namespace, name string, params map[string]any) (*ExecInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	converted := make(map[string]Value, len(params))
	for k, v := range params {
		switch x := v.(type) {
		case Value:
			converted[k] = x
		case bool:
			converted[k] = Bool(x)
		case int:
			converted[k] = Int(x)
		case int64:
			converted[k] = Int(x)
		case float64:
			converted[k] = Float(x)
		case string:
			converted[k] = Str(x)
		default:
			return nil, fmt.Errorf("idl: unsupported parameter type %T for %s", v, k)
		}
	}
	o := db.begin(ctx, qlog.KindCall, nil)
	if o.rec != nil || db.wal != nil || o.set.insights != nil {
		var attrs map[string]string
		if p, ok := db.engine.LookupProgram(namespace, name); ok {
			attrs = p.ParamAttrs()
		}
		// The IDL rendering serves the journal, the WAL and the digest: a
		// logged call replays as an ordinary update request. Calls have no
		// query AST, so every invocation of one program is one shape.
		o.text = callText(namespace, name, converted, attrs)
		o.fp = callFingerprint(namespace, name)
		o.rec.SetText(o.text)
	}
	return o.write(func() (*ExecInfo, error) { return db.engine.CallCtx(o.ctx, namespace, name, converted) })
}

// callText renders a program invocation in IDL surface syntax —
// `?.ns.name(.attr=v, …)` with sorted parameters — so journaled calls
// are replayable as ordinary update requests. attrs translates the
// call's parameter variables into the attribute names the program's
// head declares (S → stk); variables the program does not declare (or
// calls to unknown programs) keep their given keys.
func callText(namespace, name string, params map[string]Value, attrs map[string]string) string {
	keys := make([]string, 0, len(params))
	rendered := make(map[string]string, len(params))
	for k := range params {
		r := k
		if attr, ok := attrs[k]; ok {
			r = attr
		}
		keys = append(keys, k)
		rendered[k] = r
	}
	sort.Slice(keys, func(i, j int) bool { return rendered[keys[i]] < rendered[keys[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "?.%s.%s(", namespace, name)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, ".%s=%s", rendered[k], params[k])
	}
	b.WriteByte(')')
	return b.String()
}

// execSummary converts an engine ExecResult into the journal's
// serializable form plus the total mutation count.
func execSummary(info *ExecInfo) (qlog.ExecSummary, int) {
	sum := qlog.ExecSummary{
		ElemsInserted: info.ElemsInserted,
		ElemsDeleted:  info.ElemsDeleted,
		AttrsCreated:  info.AttrsCreated,
		AttrsDeleted:  info.AttrsDeleted,
		ValuesSet:     info.ValuesSet,
		Bindings:      info.Bindings,
	}
	changes := info.ElemsInserted + info.ElemsDeleted + info.AttrsCreated + info.AttrsDeleted + info.ValuesSet
	return sum, changes
}

// DefineView registers one view rule, e.g.
//
//	.dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)
func (db *DB) DefineView(src string) error {
	r, err := parser.ParseRule(src)
	if err != nil {
		return err
	}
	return db.define(qlog.KindRule, wal.TypeRule, r.String(), func() error { return db.engine.AddRule(r) })
}

// DefineViews registers several view rules, stopping at the first error.
func (db *DB) DefineViews(srcs ...string) error {
	for _, src := range srcs {
		if err := db.DefineView(src); err != nil {
			return fmt.Errorf("idl: rule %q: %w", src, err)
		}
	}
	return nil
}

// DefineProgram registers one update-program clause, e.g.
//
//	.dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S, .date=D)
func (db *DB) DefineProgram(src string) error {
	c, err := parser.ParseClause(src)
	if err != nil {
		return err
	}
	return db.define(qlog.KindClause, wal.TypeClause, c.String(), func() error { return db.engine.AddClause(c) })
}

// DefinePrograms registers several clauses, stopping at the first error.
func (db *DB) DefinePrograms(srcs ...string) error {
	for _, src := range srcs {
		if err := db.DefineProgram(src); err != nil {
			return fmt.Errorf("idl: clause %q: %w", src, err)
		}
	}
	return nil
}

// define commits one rule or clause registration: register, emit the
// event (with the registration's error, if any), log the text.
func (db *DB) define(kind string, typ byte, text string, register func() error) error {
	_, err := db.commit(context.Background(), nil, typ, func() string { return text }, func() error {
		err := register()
		db.rec.Emit(kind, text, err)
		return err
	})
	return err
}

// Load runs a `;`-separated IDL script: rules and clauses register, and
// queries / update requests execute in order. It returns the results of
// the executed statements.
func (db *DB) Load(src string) ([]*ScriptResult, error) {
	return db.LoadCtx(context.Background(), src)
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
			text := s.String()
			if err := db.define(qlog.KindRule, wal.TypeRule, text, func() error { return db.engine.AddRule(s) }); err != nil {
				return out, fmt.Errorf("idl: rule %q: %w", text, err)
			}
			out = append(out, &ScriptResult{Statement: text, Kind: "rule"})
		case *ast.Clause:
			text := s.String()
			if err := db.define(qlog.KindClause, wal.TypeClause, text, func() error { return db.engine.AddClause(s) }); err != nil {
				return out, fmt.Errorf("idl: clause %q: %w", text, err)
			}
			out = append(out, &ScriptResult{Statement: text, Kind: "clause"})
		case *ast.Query:
			if ast.HasUpdate(s.Body) || db.isProgramCall(s) {
				info, err := db.exec(ctx, s)
				if err != nil {
					return out, fmt.Errorf("idl: request %q: %w", s.String(), err)
				}
				out = append(out, &ScriptResult{Statement: s.String(), Kind: "exec", Exec: info})
			} else {
				ans, err := db.query(ctx, s, nil)
				if err != nil {
					return out, fmt.Errorf("idl: query %q: %w", s.String(), err)
				}
				out = append(out, &ScriptResult{Statement: s.String(), Kind: "query", Answer: ans})
			}
		}
	}
	return out, nil
}

// isProgramCall reports whether any conjunct targets a registered update
// program (such statements route through Execute even without signs).
func (db *DB) isProgramCall(q *ast.Query) bool {
	for _, c := range q.Body.Conjuncts {
		a, ok := c.(*ast.AttrExpr)
		if !ok {
			continue
		}
		dbName, ok := constStr(a.Name)
		if !ok {
			continue
		}
		te, ok := a.Expr.(*ast.TupleExpr)
		if !ok || len(te.Conjuncts) != 1 {
			continue
		}
		inner, ok := te.Conjuncts[0].(*ast.AttrExpr)
		if !ok {
			continue
		}
		name, ok := constStr(inner.Name)
		if !ok {
			continue
		}
		if _, found := db.engine.LookupProgram(dbName, name); found {
			return true
		}
	}
	return false
}

func constStr(t ast.Term) (string, bool) {
	c, ok := t.(ast.Const)
	if !ok {
		return "", false
	}
	s, ok := c.Value.(Str)
	return string(s), ok
}

// ScriptResult reports one executed script statement.
type ScriptResult struct {
	Statement string
	Kind      string // "rule", "clause", "query", "exec"
	Answer    *Result
	Exec      *ExecInfo
}
