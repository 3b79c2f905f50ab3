package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// Options configure an Engine. The zero value selects the defaults noted
// on each field.
type Options struct {
	// UseIndex enables per-(set, attribute) hash indexes for equality-
	// pinned set expressions. Default true via NewEngine.
	UseIndex bool
	// MaxIterations bounds fixpoint iterations per stratum (guards
	// non-terminating rule sets). Default 10000.
	MaxIterations int
	// NoSchedule disables safety-driven conjunct reordering: conjuncts
	// evaluate strictly left to right, so queries whose negations or
	// inequalities precede their binders fail with UnsafeError. Used by
	// the scheduling ablation benchmark.
	NoSchedule bool
	// ExposeMeta reifies the effective universe's schema as a synthetic
	// `meta` database (see meta.go) so metadata can be queried as data.
	ExposeMeta bool
	// Workers sets the degree of intra-operation parallelism. With a
	// value above one, queries whose first scheduled conjunct scans a
	// large set partition that scan across workers, view refreshes
	// included — with answers, derived overlays, and evaluator counters
	// byte-identical to sequential evaluation (DESIGN.md §10).
	// 0 and 1 evaluate sequentially. Default 0.
	Workers int
	// BestEffort degrades queries gracefully when a federated member
	// database is unreachable: instead of failing, the member is treated
	// as empty and the answer carries a Degraded report (which members
	// failed, which conjuncts were skipped). Default false — fail fast,
	// preserving single-site semantics. Updates ignore this setting and
	// always fail fast (they are all-or-nothing).
	BestEffort bool
	// NoPlanCache compiles a fresh plan for every query instead of
	// consulting the epoch-keyed plan cache. Compilation (analysis, cost
	// ranking) still happens — only reuse is disabled. Used by the
	// plan-cache ablation benchmark and as the differential suite's
	// reference mode.
	NoPlanCache bool
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{UseIndex: true, MaxIterations: 10000}
}

// Engine is the IDL evaluation engine over one universe of databases: it
// answers higher-order queries (§4), executes update requests (§5),
// materializes (higher-order) views (§6), and runs update programs
// including view-update translation (§7).
//
// An Engine is safe for concurrent use. Mutations (Execute, Call,
// UpdateBase, DDL, rule registration) serialize on the engine mutex;
// queries pin an immutable snapshot version (version.go) and evaluate
// lock-free — traced or not — taking the mutex only to freeze a fresh
// snapshot after a mutation, never to evaluate.
type Engine struct {
	mu sync.Mutex

	base  *object.Tuple // extensional universe (the only updatable part)
	rules []*compiledRule
	opts  Options
	stats Stats
	// statsMu guards the aggregate evaluator counters: lock-free
	// snapshot readers merge their local counters without e.mu.
	statsMu sync.Mutex

	// MVCC version chain (version.go). head is the newest frozen
	// snapshot (nil after any mutation, until a reader freezes a fresh
	// one); versions are the retained snapshots, under e.mu.
	head     atomic.Pointer[version]
	versions []*version
	// mvcc counters, under e.mu.
	mvccFreezes   uint64
	mvccCollected uint64
	mvccCOWClones uint64

	// regs is the published program registry: replaced, never modified,
	// by AddClause under e.mu, so lookups load it without the lock.
	regs atomic.Pointer[programRegistry]

	// epoch counts catalog changes: every mutation of the universe or
	// the rule set bumps it (markDirty). Plans validated at the current
	// epoch are fresh.
	epoch uint64
	// plans is the epoch-keyed compiled-plan cache, under planMu so the
	// lock-free read path can consult it.
	planMu        sync.Mutex
	plans         *planCache
	planHits      uint64
	planMisses    uint64
	planEvictions uint64

	// metrics/tracer are the optional observability hooks (obs.go); em
	// caches per-metric pointers so operations skip registry lookups.
	// All three are nil by default — instrumentation sites reduce to
	// pointer tests, keeping observability zero-cost when disabled.
	metrics *obs.Registry
	em      *engineMetrics
	tracer  *obs.Tracer

	derivedDynamic map[string]bool            // db -> has higher-order heads
	derivedRels    map[string]map[string]bool // db -> rel -> derived

	derived   *object.Tuple // overlay from last materialization
	effective *object.Tuple // merged base+derived from last refresh
	dirty     bool          // base or rules changed since last refresh
	// strata are the rules grouped by stratum, lowest first; views is the
	// state that maintains the overlay by delta (maintain.go).
	strata [][]*compiledRule
	views  viewState
	// plus is the insert builder every request's updater shares (update.go).
	plus plusTuple

	// validator, when set, checks the base universe after every
	// mutating request; a non-nil error rolls the request back
	// (integrity enforcement — see internal/schema).
	validator func(*object.Tuple) error

	// unavailable names federated member databases whose last sync
	// failed (best-effort mode); Explain marks conjuncts over them as
	// skipped. Maintained by the federation layer via SetUnavailable.
	unavailable map[string]bool
	// readOnly names databases backed by federated sources: their
	// contents are snapshots, so update requests targeting them are
	// rejected rather than silently lost on the next sync.
	readOnly map[string]bool

	lastRecompute RecomputeStats
	// fixpointRounds counts view-materialization iterations engine-wide;
	// entry points snapshot it around an operation to attribute the rounds
	// that operation triggered (Answer.Resources / ExecResult.Resources).
	fixpointRounds uint64
}

// SetValidator installs (or clears, with nil) an integrity validator run
// against the base universe after every mutating request. A validation
// error aborts and rolls back the request.
func (e *Engine) SetValidator(fn func(*object.Tuple) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.validator = fn
}

// NewEngine returns an engine with an empty universe.
func NewEngine() *Engine { return NewEngineWithOptions(DefaultOptions()) }

// NewEngineWithOptions returns an engine with explicit options.
func NewEngineWithOptions(opts Options) *Engine {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 10000
	}
	e := &Engine{
		base:           object.NewTuple(),
		plans:          newPlanCache(),
		opts:           opts,
		derivedDynamic: map[string]bool{},
		derivedRels:    map[string]map[string]bool{},
		dirty:          true,
	}
	e.regs.Store(newProgramRegistry())
	return e
}

// Base returns the extensional universe tuple. Callers who mutate it
// directly (e.g. bulk loaders) must call Invalidate afterwards.
func (e *Engine) Base() *object.Tuple { return e.base }

// Options returns a copy of the engine options.
func (e *Engine) Options() Options {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opts
}

// UpdateBase runs fn against the base universe under the engine mutex
// and marks derived state dirty when fn reports a change. It is the
// hook for components that must mutate the base coherently with
// concurrent queries — notably the federation sync installing member
// snapshots.
func (e *Engine) UpdateBase(fn func(base *object.Tuple) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fn(e.base) {
		e.markDirty(false)
	}
}

// SetUnavailable records which federated member databases are currently
// unreachable (nil clears). Explain marks conjuncts over them. Snapshots
// carry the set to the reads that pin them, so a change drops the
// published MVCC head.
func (e *Engine) SetUnavailable(names []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var m map[string]bool
	if len(names) > 0 {
		m = make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
	}
	if !maps.Equal(m, e.unavailable) {
		e.unavailable = m
		e.invalidateHead()
	}
}

// SetReadOnly marks databases as federated snapshots: update requests
// that target them fail with a *ReadOnlyDBError.
func (e *Engine) SetReadOnly(names []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(names) == 0 {
		e.readOnly = nil
		return
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	e.readOnly = m
}

// ReadOnlyDBError reports an update request that targeted a federated
// (source-backed) database. Member snapshots are read-only: a write
// would be silently lost on the next sync instead of reaching the
// autonomously administered member.
type ReadOnlyDBError struct{ DB string }

func (e *ReadOnlyDBError) Error() string {
	return fmt.Sprintf("core: database %s is a federated source snapshot and cannot be updated through this engine", e.DB)
}

// Invalidate marks derived views stale; the next query rematerializes
// from scratch (an external mutation carries no delta).
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.markDirty(false)
}

// markDirty records staleness. captured says the change's per-relation
// delta is in e.views.pending (a request or call's updater recorded it);
// any other change makes the next refresh recompute from scratch. Every
// call bumps the catalog epoch — each corresponds to a change to the
// universe or rule set, so a scheduled plan stamped at an older epoch is
// re-ranked before reuse (fits). It also drops
// the published MVCC head: new readers block on e.mu until the mutation
// in progress commits (or rolls back), then freeze a fresh snapshot and
// evaluate it unlocked (pin). Readers already pinned to an
// older version are unaffected — their snapshot is immutable. Callers
// hold e.mu.
func (e *Engine) markDirty(captured bool) {
	e.epoch++
	e.invalidateHead()
	e.dirty = true
	if !captured {
		e.views.pending.invalidate()
	}
}

// Stats returns a copy of the evaluator counters.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// ResetStats zeroes the evaluator counters.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats = Stats{}
}

// addStats merges one operation's local counters into the engine-wide
// aggregate. Safe without e.mu.
func (e *Engine) addStats(local Stats) {
	e.statsMu.Lock()
	e.stats.add(local)
	e.statsMu.Unlock()
}

// LastRecompute reports the work done by the most recent view
// materialization.
func (e *Engine) LastRecompute() RecomputeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastRecompute
}

// AddRule registers a view rule (§6) after validation and restratifies
// the rule set.
func (e *Engine) AddRule(r *ast.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ast.HasUpdate(r.Body) {
		return fmt.Errorf("core: rule body %q must not contain update expressions", r.Body.String())
	}
	cr, err := compileRule(r)
	if err != nil {
		return err
	}
	candidate := append(append([]*compiledRule(nil), e.rules...), cr)
	if err := stratify(candidate); err != nil {
		return err
	}
	e.rules = candidate
	e.strata = strata(candidate)
	if cr.headRel == nil {
		e.derivedDynamic[cr.headDB] = true
	} else if v, ok := cr.headRel.(ast.Const); ok {
		if s, ok := v.Value.(object.Str); ok {
			rels := e.derivedRels[cr.headDB]
			if rels == nil {
				rels = map[string]bool{}
				e.derivedRels[cr.headDB] = rels
			}
			rels[string(s)] = true
		}
	} else {
		// Higher-order head: relation set is data dependent, so the whole
		// database is derived.
		e.derivedDynamic[cr.headDB] = true
	}
	e.markDirty(false)
	return nil
}

// Rules returns the source rules in registration order.
func (e *Engine) Rules() []*ast.Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*ast.Rule, len(e.rules))
	for i, r := range e.rules {
		out[i] = r.src
	}
	return out
}

// AddClause registers an update-program clause (§7).
func (e *Engine) AddClause(c *ast.Clause) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cc, err := compileClause(c)
	if err != nil {
		return err
	}
	e.regs.Store(e.regs.Load().with(cc))
	return nil
}

// Clauses returns the source clauses — callable programs and view
// updaters alike — in global registration order, so the full clause set
// can be checkpointed and re-registered on recovery.
func (e *Engine) Clauses() []*ast.Clause {
	return slices.Clone(e.regs.Load().srcs)
}

// Programs lists the registered callable programs.
func (e *Engine) Programs() []*Program {
	return e.regs.Load().All()
}

// LookupProgram finds a callable program by namespace and name. It takes
// no lock and allocates nothing, so a read can ask it.
func (e *Engine) LookupProgram(db, name string) (*Program, bool) {
	return e.regs.Load().lookup(db, name)
}

// Query answers a pure query (§4) against the effective universe
// (base ∪ materialized views). It rejects update requests.
func (e *Engine) Query(q *ast.Query) (*Answer, error) {
	return e.QueryCtx(context.Background(), q)
}

// QueryCtx is Query under a context: evaluation observes cancellation
// and deadlines, with checks amortized so the enumeration hot path
// stays fast. A cancelled query returns ctx.Err().
//
// Evaluation always runs a compiled plan, from the epoch-keyed plan
// cache unless caching is off; the answer's Plan field reports the cache
// outcome.
func (e *Engine) QueryCtx(ctx context.Context, q *ast.Query) (*Answer, error) {
	if e.IsUpdate(q) {
		return nil, errUpdateRead
	}
	ans, _, err := e.read(ctx, shapeOf(q), readQuery)
	return ans, err
}

// ReadShapeCtx runs a statement of a known shape on the QueryCtx path: q
// is a tree of the statement's shape, fp its ast.FingerprintLits hash
// and lits the statement's own literals in that walk's order. The
// facade's shape table passes the shape's representative, which carries
// another statement's literal values: a plan compiled from q lifts them
// into slots, and the read binds lits into those slots. With withPlan
// it also returns the static plan of the plan that answered — a logged
// read's plan digest — so observing a read neither compiles nor looks
// up another plan.
func (e *Engine) ReadShapeCtx(ctx context.Context, q *ast.Query, fp uint64, lits []object.Object, withPlan bool) (*Answer, *Explain, error) {
	if e.IsUpdate(q) {
		return nil, nil, errUpdateRead
	}
	kind := readQuery
	if withPlan {
		kind = readPlanned
	}
	return e.read(ctx, stmtShape{q: q, fp: fp, lits: lits}, kind)
}

var errUpdateRead = errors.New("core: query is an update request; use Execute")

// readKind is what a read does with the plan it acquired.
type readKind uint8

const (
	readQuery   readKind = iota // evaluate it
	readPlanned                 // evaluate it; report it statically
	readExplain                 // report it; evaluate nothing, leave the plan cache as it is
	readAnalyze                 // evaluate it measured; report it with actuals
)

// read is the one read path, shared by queries, EXPLAIN and EXPLAIN
// ANALYZE: pin a version, run.
// Reads are snapshot-isolated: the query pins the newest committed
// version of the effective universe (version.go) and evaluates against it
// without holding the engine mutex, so concurrent queries share the
// machine instead of a lock queue — traced, logged or explained. Only
// the first read after a mutation takes the mutex, inside pin, to
// refresh and freeze the version it and the readers behind it evaluate.
func (e *Engine) read(ctx context.Context, s stmtShape, kind readKind) (*Answer, *Explain, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cctx := cancellable(ctx)
	v, rounds, err := e.pin(cctx)
	if err != nil {
		return nil, nil, err
	}
	defer v.unpin()
	ans, x, err := e.runQuery(cctx, ctx, s, v.readView, kind)
	if ans != nil {
		ans.Resources.FixpointRounds = rounds
	}
	return ans, x, err
}

// readView is what one evaluation reads: an effective universe that
// stays immutable for the duration, with the epoch, options,
// observability hooks and unreachable members that go with it — a pinned
// version's for a read, the merged universe under e.mu for a view
// refresh's rule bodies.
type readView struct {
	eff         *object.Tuple
	epoch       uint64
	opts        Options
	em          *engineMetrics
	tracer      *obs.Tracer
	unavailable map[string]bool
}

// runQuery runs a pure query's plan against a pinned version's view,
// with no engine lock held. The plan comes from the plan cache, or is
// compiled cold under NoPlanCache, and the read binds its own statement's
// literals into the plan's literal slots (bind) and executes the plan's
// own AST: every evaluation of one plan walks identical pointers, so
// statements of one shape enumerate identically whether they hit or miss
// the cache, and a measured read — traced, or EXPLAIN ANALYZE — runs the
// plan's own programs with one probe per step of the body's. Shared state
// it touches is individually synchronized: the plan cache under planMu,
// each set's memo of indexes and statistics (object.Set.Probe, Stats), the
// tracer's ring, and the aggregate counters under statsMu.
func (e *Engine) runQuery(cctx context.Context, ctx context.Context, s stmtShape, rv readView, kind readKind) (*Answer, *Explain, error) {
	pl, state := e.planFor(s.q, s.key(rv.opts), rv, kind == readExplain)
	an := pl.an.bind(s.lits)
	var x *Explain
	if kind != readQuery {
		x = e.planQuery(an, rv)
		if kind == readExplain {
			return nil, x, nil
		}
	}
	name := "query"
	var start time.Time
	if kind == readAnalyze {
		name = "explain-analyze"
		// ANALYZE's total times the evaluation alone, not the plan
		// acquisition or the simulation above.
		start = time.Now()
	}
	span := rv.tracer.Start(name)
	annotateTraceID(span, ctx)
	var analyze *analyzeState
	if span != nil || kind == readAnalyze {
		// Traced reads carry per-conjunct child spans, measured by the
		// same probes EXPLAIN ANALYZE reports.
		analyze = newAnalyze(an)
	}
	var local Stats
	rows, err := e.collect(cctx, an, rv, &local, analyze, pl.rowHint())
	e.addStats(local)
	if rv.em != nil {
		rv.em.evalWork(local)
	}
	if span != nil {
		endQuerySpan(span, rows.len(), local, an, analyze)
	}
	if err != nil {
		return nil, nil, err
	}
	pl.noteRows(rows.len())
	if kind == readAnalyze {
		x.annotate(analyze.probes, rows.len(), time.Since(start))
	}
	return &Answer{Vars: an.output(), rows: rows, Plan: planInfo(pl, state), Resources: resourcesFrom(local, rows.len())}, x, nil
}

// endQuerySpan closes a measured query's span: the run's totals, then one
// child per top-level conjunct from the analyze probes.
func endQuerySpan(span *obs.Span, rows int, local Stats, an *bodyAnalysis, analyze *analyzeState) {
	span.SetInt("rows", int64(rows))
	span.SetInt("elements_scanned", int64(local.ElementsScanned))
	span.SetInt("index_probes", int64(local.IndexProbes))
	attachConjunctSpans(span, an, analyze)
	span.End()
}

// collect is the engine's one enumeration loop: it evaluates a compiled
// body against a view's universe and returns its distinct output rows — the bindings
// of the scope's first an.width variables, answer variables for a query
// and head variables for a rule — in first-derived order. With
// rv.opts.Workers > 1 it first tries to partition the body's leading scan
// across workers (parallel.go), whose ordered merge reproduces the
// sequential row order exactly; measured runs (analyze != nil) stay
// sequential, per-conjunct probes not being parallel-safe. A sequential
// run presizes its row set for hint rows (a plan's last answer). The row
// set is never nil, and partial on error.
func (e *Engine) collect(ctx context.Context, an *bodyAnalysis, rv readView, stats *Stats, analyze *analyzeState, hint int) (*rowSet, error) {
	if rv.opts.Workers > 1 && analyze == nil {
		if rows, ok, err := e.collectPartitioned(ctx, an, rv, stats); ok {
			return rows, err
		}
	}
	ev := newEvaluator(ctx, an, rv.opts, stats)
	ev.analyze = analyze
	rows := newRowSet(an.width)
	rows.presize(hint)
	err := ev.satisfy(an.body, rv.eff, func() error {
		rows.add(ev.env.window(an.width))
		return nil
	})
	return rows, err
}

// cancellable strips never-cancelled contexts down to nil so the
// evaluator's amortized check compiles to a single pointer test on the
// legacy (context-free) entry points.
func cancellable(ctx context.Context) context.Context {
	if ctx == nil || ctx == context.Background() || ctx == context.TODO() {
		return nil
	}
	return ctx
}

// Execute runs an update request (§5.2): a conjunction of query
// expressions, update expressions, and update-program calls, processed
// left → right under a shared substitution bag. The request is atomic —
// any error rolls every mutation back.
func (e *Engine) Execute(q *ast.Query) (*ExecResult, error) {
	return e.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx is Execute under a context. Cancellation aborts the
// request and rolls back every mutation already applied — the request
// stays atomic.
func (e *Engine) ExecuteCtx(ctx context.Context, q *ast.Query) (*ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.request(ctx, "exec", func(u *updater) error {
		err := e.execBody(resolveUnit(nil, q.Body, false), u, nil, map[*compiledClause]bool{})
		u.span.SetInt("bindings", int64(u.result.Bindings))
		return err
	})
}

// request runs run as one atomic update request, with e.mu held: under
// a span of the given name, it counts the request's work, validates a
// mutating request, and rolls every mutation back when either fails;
// the views learn whether the base changed.
func (e *Engine) request(ctx context.Context, name string, run func(*updater) error) (*ExecResult, error) {
	span := e.tracer.Start(name)
	annotateTraceID(span, ctx)
	var local Stats
	rounds := e.fixpointRounds
	u := e.newUpdater(&local, cancellable(ctx), span)
	err := run(u)
	if err == nil {
		err = e.validate(u)
	}
	e.addStats(local)
	if e.em != nil {
		e.em.evalWork(local)
	}
	if span != nil {
		span.SetInt("changes", int64(u.result.total()))
		span.End()
	}
	if err != nil {
		u.undo.rollback()
		e.markDirty(false)
		return nil, err
	}
	if u.result.Changed() {
		e.markDirty(true)
	}
	u.result.Resources = resourcesFrom(local, u.result.Bindings)
	u.result.Resources.FixpointRounds = e.fixpointRounds - rounds
	return u.result, nil
}

// validate runs the installed integrity validator for a mutating request.
func (e *Engine) validate(u *updater) error {
	if e.validator == nil || !u.result.Changed() {
		return nil
	}
	return e.validator(e.base)
}

// Call invokes a named update program with explicit parameter bindings —
// the API-level equivalent of `?.db.prog(.param=value, …)`.
func (e *Engine) Call(db, name string, params map[string]object.Object) (*ExecResult, error) {
	return e.CallCtx(context.Background(), db, name, params)
}

// CallCtx is Call under a context; cancellation aborts and rolls back.
func (e *Engine) CallCtx(ctx context.Context, db, name string, params map[string]object.Object) (*ExecResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.regs.Load().lookup(db, name)
	if !ok {
		return nil, fmt.Errorf("core: no update program %s.%s", db, name)
	}
	return e.request(ctx, "call", func(u *updater) error {
		return e.invokeProgram(p, params, u, map[*compiledClause]bool{})
	})
}

// EffectiveUniverse returns the merged base+derived universe,
// rematerializing views if stale. The result must not be mutated.
func (e *Engine) EffectiveUniverse() (*object.Tuple, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refreshEffective(nil)
}

// DerivedOverlay returns the current derived overlay (views only),
// rematerializing if stale.
func (e *Engine) DerivedOverlay() (*object.Tuple, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.refreshEffective(nil); err != nil {
		return nil, err
	}
	return e.derived, nil
}

// refreshEffective brings the effective universe up to date when stale:
// the derived overlay is maintained by the pending delta when one was
// captured, and refreshed from empty otherwise (maintain.go). Callers
// hold e.mu. A nil ctx means uncancellable.
func (e *Engine) refreshEffective(ctx context.Context) (*object.Tuple, error) {
	if !e.dirty && e.effective != nil {
		return e.effective, nil
	}
	obsOn := e.em != nil || e.tracer != nil
	var start time.Time
	var span *obs.Span
	if obsOn && len(e.rules) > 0 {
		start = time.Now()
		span = e.tracer.Start("materialize")
	}
	stats, err := e.refreshViews(ctx, span)
	if err != nil {
		// The overlay may be half maintained: the next refresh starts
		// from empty.
		e.views.pending.invalidate()
		e.views.rows = nil
	}
	if !start.IsZero() && e.em != nil {
		e.em.matCount.Inc()
		if stats.Delta {
			e.em.matDelta.Inc()
		}
		e.em.matIterations.Add(uint64(stats.Iterations))
		e.em.matRuleRuns.Add(uint64(stats.RuleRuns))
		e.em.matFactsDerived.Add(uint64(stats.FactsDerived))
		e.em.matCandidates.Add(uint64(stats.DecreeCandidates))
		e.em.matLatency.Observe(time.Since(start))
	}
	if span != nil {
		span.SetInt("iterations", int64(stats.Iterations))
		span.SetInt("rule_runs", int64(stats.RuleRuns))
		span.SetInt("facts_derived", int64(stats.FactsDerived))
		if stats.Delta {
			span.SetStr("mode", "delta")
		}
		span.End()
	}
	if err != nil {
		return nil, err
	}
	e.views.pending = pendingDelta{}
	e.lastRecompute = stats
	e.fixpointRounds += uint64(stats.Iterations)
	e.effective = mergeUniverse(e.base, e.derived)
	if e.opts.ExposeMeta && !e.effective.Has(MetaDB) {
		// Reify on a copy when the merge returned the base by reference,
		// so the synthetic database never leaks into the base universe.
		if e.effective == e.base {
			cp := object.NewTuple()
			e.base.Each(func(db string, v object.Object) bool {
				cp.Put(db, v)
				return true
			})
			e.effective = cp
		}
		e.effective.Put(MetaDB, buildMeta(e.effective))
	}
	e.dirty = false
	return e.effective, nil
}

// newUpdater returns the executor of one update request or program call.
// Its evaluator has no unit yet: execBody enters one per body it runs.
func (e *Engine) newUpdater(stats *Stats, ctx context.Context, span *obs.Span) *updater {
	u := &updater{
		ev:     &evaluator{useIndex: e.opts.UseIndex, noSchedule: e.opts.NoSchedule, stats: stats, ctx: ctx},
		undo:   &undoLog{},
		result: &ExecResult{},
		span:   span,
		plus:   &e.plus,
	}
	u.cow = e.cowSetUndo(u)
	if len(e.rules) > 0 {
		// Capture the request's delta for the views; with no rules
		// there is nothing to maintain.
		u.delta = &e.views.pending
	}
	return u
}

// execBody is the shared request loop used by Execute, program clause
// bodies, and view-update translations: classify each conjunct of the
// compiled body as query / program call / update and process left →
// right over the substitution bag — a row set over the body's whole
// scope, seeded with the given parameter bindings. Every row of the bag
// binds the same slots, so the body's lists are scheduled once, for the
// seed's signature (bodyAnalysis.request).
func (e *Engine) execBody(an *bodyAnalysis, u *updater, params map[string]object.Object, active map[*compiledClause]bool) error {
	seed := an.seed(params)
	an = an.request(seed, func(c ast.Expr) bool {
		_, _, ok := e.programCall(c)
		return ok
	}, u.ev.noSchedule)
	caller := u.ev.unit
	u.ev.unit = newUnit(an)
	defer func() { u.ev.unit = caller }()
	env := u.ev.env
	envs := newRowSet(an.sc.size())
	envs.add(seed)
	for _, conjunct := range an.body.Conjuncts {
		if err := validateUpdateConjunct(conjunct); err != nil {
			return err
		}
		switch {
		case !ast.HasUpdate(conjunct):
			// Program call or query conjunct.
			if p, args, ok := e.programCall(conjunct); ok {
				for i := 0; i < envs.len(); i++ {
					env.load(envs.row(i))
					bound, err := bindCallParams(p.Clauses[0], args, env)
					if err != nil {
						return err
					}
					if err := e.invokeProgram(p, bound, u, active); err != nil {
						return err
					}
				}
				continue
			}
			eff, err := e.refreshEffective(u.ev.ctx)
			if err != nil {
				return err
			}
			extended := newRowSet(an.sc.size())
			for i := 0; i < envs.len(); i++ {
				env.load(envs.row(i))
				err := u.ev.satisfy(conjunct, eff, func() error {
					extended.add(env.all())
					return nil
				})
				if err != nil {
					return err
				}
			}
			envs = extended

		default:
			// Update conjunct: route to a view updater or the base.
			for i := 0; i < envs.len(); i++ {
				env.load(envs.row(i))
				if err := e.execUpdateConjunct(conjunct, u, active); err != nil {
					return err
				}
			}
			e.markDirty(true)
		}
	}
	u.result.Bindings = envs.len()
	return nil
}

// programCall recognizes `.db.name(args…)` conjuncts naming a registered
// update program, and returns the program and the call's arguments: a
// tuple of them, a single one, or ε. Registered program namespaces
// shadow same-named data. It reads the published registry with no lock
// and allocates nothing.
func (e *Engine) programCall(conjunct ast.Expr) (*Program, ast.Expr, bool) {
	a, ok := conjunct.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return nil, nil, false
	}
	db, ok := ast.ConstName(a.Name)
	if !ok {
		return nil, nil, false
	}
	inner, ok := a.Expr.(*ast.TupleExpr)
	if !ok || len(inner.Conjuncts) != 1 {
		return nil, nil, false
	}
	nameAttr, ok := inner.Conjuncts[0].(*ast.AttrExpr)
	if !ok || nameAttr.Sign != ast.SignNone {
		return nil, nil, false
	}
	name, ok := ast.ConstName(nameAttr.Name)
	if !ok {
		return nil, nil, false
	}
	p, found := e.regs.Load().lookup(db, name)
	if !found || len(p.Clauses) == 0 {
		return nil, nil, false
	}
	switch x := nameAttr.Expr.(type) {
	case ast.Epsilon:
		return p, x, true
	case *ast.SetExpr:
		switch x.X.(type) {
		case *ast.TupleExpr, ast.Epsilon, *ast.AttrExpr:
			if x.Sign == ast.SignNone {
				return p, x.X, true
			}
		}
	}
	return nil, nil, false
}

// IsUpdate reports whether q is an update request: it has signed update
// expressions, or a top-level conjunct calls a registered update
// program, which needs no sign. The read entry points reject it, and the
// facade routes a script's statement by it. It takes no lock and
// allocates nothing.
func (e *Engine) IsUpdate(q *ast.Query) bool {
	if ast.HasUpdate(q.Body) {
		return true
	}
	for _, c := range q.Body.Conjuncts {
		if _, _, ok := e.programCall(c); ok {
			return true
		}
	}
	return false
}

// invokeProgram executes every clause of a program, in order, under the
// given parameter bindings — re-matching each clause's own parameter
// declaration (clauses may declare different subsets; a clause is seeded
// only with the parameters it declares).
func (e *Engine) invokeProgram(p *Program, bound map[string]object.Object, u *updater, active map[*compiledClause]bool) error {
	for _, cc := range p.Clauses {
		if active[cc] {
			return fmt.Errorf("core: recursive invocation of update program %s.%s", p.DB, p.Name)
		}
	}
	if e.em != nil {
		e.em.programCalls.Inc()
	}
	if u.span != nil {
		// Nested program invocations hang off the caller's span, giving
		// the traced request an update-program call tree.
		parent := u.span
		sp := parent.Child("program " + p.DB + "." + p.Name)
		u.span = sp
		defer func() { sp.End(); u.span = parent }()
	}
	for _, cc := range p.Clauses {
		// Check the clause's binding signature.
		for _, req := range cc.required {
			if _, ok := bound[req]; !ok {
				return fmt.Errorf("core: program %s.%s requires parameter variable %s to be bound (insert expressions would be undefined)", p.DB, p.Name, req)
			}
		}
		active[cc] = true
		err := e.execBody(cc.an, u, bound, active)
		delete(active, cc)
		if err != nil {
			return fmt.Errorf("core: program %s.%s: %w", p.DB, p.Name, err)
		}
	}
	return nil
}

// execUpdateConjunct routes one update conjunct: updates touching derived
// (view) relations dispatch to registered view-update programs; everything
// else applies to the base universe.
func (e *Engine) execUpdateConjunct(conjunct ast.Expr, u *updater, active map[*compiledClause]bool) error {
	if db, rel, sign, inner, ok := e.updateTarget(conjunct, u.ev.env); ok && e.isDerived(db, rel) {
		cc, found := e.regs.Load().lookupViewUpdater(db, rel, sign)
		if !found {
			return fmt.Errorf("core: view %s.%s is not updatable: no %s-update program is registered for it", db, rel, sign)
		}
		if active[cc] {
			return fmt.Errorf("core: recursive view-update translation for %s.%s", db, rel)
		}
		bound, err := matchViewUpdate(cc, rel, inner, u.ev.env)
		if err != nil {
			return err
		}
		for _, req := range cc.required {
			if _, ok := bound[req]; !ok {
				return fmt.Errorf("core: view update on %s.%s requires %s to be bound", db, rel, req)
			}
		}
		active[cc] = true
		err = e.execBody(cc.an, u, bound, active)
		delete(active, cc)
		if err != nil {
			return fmt.Errorf("core: view update on %s.%s: %w", db, rel, err)
		}
		return nil
	}
	// Guard: an update conjunct whose database level is derived but whose
	// shape we could not match is an error rather than a silent base write.
	if a, ok := conjunct.(*ast.AttrExpr); ok {
		if len(e.readOnly) > 0 {
			if db, err := attrName(a.Name, u.ev.env, "attribute variable"); err == nil && e.readOnly[db] {
				return &ReadOnlyDBError{DB: db}
			}
		}
		if db, ok := ast.ConstName(a.Name); ok && e.dbIsDerived(db) {
			if _, _, _, _, matched := e.updateTarget(conjunct, u.ev.env); !matched {
				return fmt.Errorf("core: cannot update derived database %s: only relation-level +/- set expressions are translatable", db)
			}
			return fmt.Errorf("core: view in database %s is not updatable: no update program is registered for it", db)
		}
	}
	return u.execUpdate(conjunct, e.base, noSlot{})
}

// updateTarget recognizes the translatable view-update shape:
// `.db.rel±(inner)` with resolvable names.
func (e *Engine) updateTarget(conjunct ast.Expr, env *Env) (db, rel string, sign ast.Sign, inner ast.Expr, ok bool) {
	a, isAttr := conjunct.(*ast.AttrExpr)
	if !isAttr || a.Sign != ast.SignNone {
		return "", "", 0, nil, false
	}
	db, err := attrName(a.Name, env, "attribute variable")
	if err != nil {
		return "", "", 0, nil, false
	}
	te, isTE := a.Expr.(*ast.TupleExpr)
	if !isTE || len(te.Conjuncts) != 1 {
		return "", "", 0, nil, false
	}
	relAttr, isAttr := te.Conjuncts[0].(*ast.AttrExpr)
	if !isAttr || relAttr.Sign != ast.SignNone {
		return "", "", 0, nil, false
	}
	rel, err = attrName(relAttr.Name, env, "attribute variable")
	if err != nil {
		return "", "", 0, nil, false
	}
	se, isSet := relAttr.Expr.(*ast.SetExpr)
	if !isSet || se.Sign == ast.SignNone {
		return "", "", 0, nil, false
	}
	return db, rel, se.Sign, se.X, true
}

// isDerived reports whether (db, rel) is produced by view rules.
func (e *Engine) isDerived(db, rel string) bool {
	if e.derivedDynamic[db] {
		return true
	}
	return e.derivedRels[db][rel]
}

func (e *Engine) dbIsDerived(db string) bool {
	return e.derivedDynamic[db] || len(e.derivedRels[db]) > 0
}
