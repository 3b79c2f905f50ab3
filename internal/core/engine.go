package core

import (
	"context"
	"fmt"
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
	// SemiNaive enables rule-level semi-naive fixpoint iteration during
	// view materialization. Default true via NewEngine.
	SemiNaive bool
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
	// IncrementalViews maintains materialized views incrementally when it
	// is sound to do so: after a purely additive update (no deletes, no
	// nulled values) and with a negation-free rule set, rules re-run on
	// top of the existing overlay instead of from scratch. Any other
	// change falls back to full recomputation.
	IncrementalViews bool
	// Workers sets the degree of intra-operation parallelism. With a
	// value above one, queries whose first scheduled conjunct scans a
	// large set partition that scan across workers, and view
	// materialization evaluates independent rules of a stratum
	// concurrently — with answers, derived overlays, and evaluator
	// counters byte-identical to sequential evaluation (DESIGN.md §10).
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
	// plan-cache ablation benchmark and the differential suite.
	NoPlanCache bool
	// Interpret evaluates queries directly from the AST with no plan
	// object at all: safety analysis is recomputed lazily per evaluation,
	// exactly as the pre-planner engine did. Conjunct cost ranks are
	// still applied (computed per call from the same statistics), so
	// answers stay byte-identical to compiled evaluation. Used by the
	// differential suite as the reference mode.
	Interpret bool
	// PlanCacheSize bounds the plan cache (LRU eviction). 0 selects the
	// default of 256 plans.
	PlanCacheSize int
	// MaxRevisions bounds MVCC snapshot retention: at each freeze,
	// unpinned versions beyond the newest MaxRevisions are collected
	// (pinned versions always survive). 0 selects the default of 4.
	MaxRevisions int
	// SerialReads disables the MVCC lock-free read path: queries
	// evaluate under the engine mutex exactly as before the versioned
	// universe landed. Used as the single-mutex baseline by the B18
	// bench family and the differential suite's {mutex} arm.
	SerialReads bool
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{UseIndex: true, SemiNaive: true, MaxIterations: 10000}
}

// Engine is the IDL evaluation engine over one universe of databases: it
// answers higher-order queries (§4), executes update requests (§5),
// materializes (higher-order) views (§6), and runs update programs
// including view-update translation (§7).
//
// An Engine is safe for concurrent use. Mutations (Execute, Call,
// UpdateBase, DDL, rule registration) serialize on the engine mutex;
// queries pin an immutable snapshot version (version.go) and evaluate
// lock-free, falling back to the mutex only to freeze a fresh snapshot
// after a mutation — or always, under Options.SerialReads.
type Engine struct {
	mu sync.Mutex

	base    *object.Tuple // extensional universe (the only updatable part)
	rules   []*compiledRule
	regs    *programRegistry
	indexes *indexCache
	opts    Options
	stats   Stats
	// statsMu guards the aggregate evaluator counters: lock-free
	// snapshot readers merge their local counters without e.mu.
	statsMu sync.Mutex

	// MVCC version chain (version.go). head is the newest frozen
	// snapshot (nil after any mutation, until a reader freezes a fresh
	// one); versions are the retained snapshots; published marks every
	// set shared into a live snapshot — the sets writers must
	// copy-on-write. versions/published live under e.mu.
	head      atomic.Pointer[version]
	versions  []*version
	published map[*object.Set]bool
	// mvcc counters, under e.mu.
	mvccFreezes   uint64
	mvccCollected uint64
	mvccCOWClones uint64

	// epoch counts catalog changes: every mutation of the universe or
	// the rule set bumps it (markDirty). Plans, prepared queries, and
	// relation statistics validated at the current epoch are fresh.
	epoch uint64
	// plans is the epoch-keyed compiled-plan cache, under planMu so the
	// lock-free read path can consult it; relStats is the lazy
	// per-relation statistics memo (a sync.Map — see stats.go).
	planMu        sync.Mutex
	plans         *planCache
	planHits      uint64
	planMisses    uint64
	planEvictions uint64
	relStats      sync.Map // *object.Set -> *relStat

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
	// monotoneDirty: every change since the last refresh was purely
	// additive, so (for negation-free rule sets) the existing overlay is
	// still a sound lower bound and can be grown incrementally.
	monotoneDirty bool
	rulesMonotone bool // no rule body contains a negated reference

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
	return &Engine{
		base:           object.NewTuple(),
		regs:           newProgramRegistry(),
		indexes:        newIndexCache(),
		plans:          newPlanCache(opts.PlanCacheSize),
		opts:           opts,
		derivedDynamic: map[string]bool{},
		derivedRels:    map[string]map[string]bool{},
		dirty:          true,
	}
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
// unreachable (nil clears). Explain marks conjuncts over them.
func (e *Engine) SetUnavailable(names []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(names) == 0 {
		e.unavailable = nil
		return
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	e.unavailable = m
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
// from scratch (external mutations are assumed non-monotone).
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.markDirty(false)
}

// markDirty records staleness; monotone dirt can stack on monotone dirt,
// anything else forces a full recomputation. Every call bumps the
// catalog epoch — each corresponds to a change to the universe or rule
// set, so plans and statistics stamped at an older epoch must revalidate
// their dependencies before reuse. It also drops the published MVCC
// head: new readers fall into the locked slow path and block on e.mu
// until the mutation in progress commits (or rolls back), then freeze a
// fresh snapshot. Readers already pinned to an older version are
// unaffected — their snapshot is immutable. Callers hold e.mu.
func (e *Engine) markDirty(monotone bool) {
	e.epoch++
	e.invalidateHead()
	if e.dirty {
		e.monotoneDirty = e.monotoneDirty && monotone
	} else {
		e.dirty = true
		e.monotoneDirty = monotone
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
	e.rulesMonotone = true
	for _, cr := range e.rules {
		for _, ref := range cr.refs {
			if ref.negated {
				e.rulesMonotone = false
			}
		}
	}
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
	e.regs.add(cc)
	return nil
}

// Clauses returns the source clauses — callable programs and view
// updaters alike — in global registration order, so the full clause set
// can be checkpointed and re-registered on recovery.
func (e *Engine) Clauses() []*ast.Clause {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*ast.Clause(nil), e.regs.srcs...)
}

// Programs lists the registered callable programs.
func (e *Engine) Programs() []*Program {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.regs.All()
}

// LookupProgram finds a callable program by namespace and name.
func (e *Engine) LookupProgram(db, name string) (*Program, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.regs.lookup(db, name)
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
// Reads are snapshot-isolated: the query pins the newest committed
// version of the effective universe (version.go) and evaluates against
// it without holding the engine mutex, so concurrent queries share the
// machine instead of a lock queue. The mutex is taken only when no
// fresh snapshot is published (the first read after a mutation freezes
// one), under Options.SerialReads, or when a tracer is attached
// (per-conjunct probes are not concurrency-safe).
//
// Unless the planner is bypassed (NoSchedule, Interpret, or a traced
// run), evaluation goes through a compiled plan from the epoch-keyed
// plan cache; the answer's Plan field reports the cache outcome.
func (e *Engine) QueryCtx(ctx context.Context, q *ast.Query) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ast.HasUpdate(q.Body) {
		return nil, fmt.Errorf("core: query contains update expressions; use Execute")
	}
	if v := e.pinHead(); v != nil {
		if v.opts.SerialReads || v.tracer != nil {
			v.unpin()
		} else {
			defer v.unpin()
			return e.runSnapshot(cancellable(ctx), ctx, q, v, nil, nil)
		}
	}
	return e.queryLocked(ctx, q)
}

// queryLocked is the mutex-guarded read path: refresh the effective
// universe, publish a fresh snapshot for subsequent lock-free readers,
// and evaluate under the lock (pre-MVCC semantics).
func (e *Engine) queryLocked(ctx context.Context, q *ast.Query) (*Answer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cctx := cancellable(ctx)
	rounds := e.fixpointRounds
	if _, err := e.refreshEffective(cctx); err != nil {
		return nil, err
	}
	if !e.opts.SerialReads {
		e.publishHeadLocked()
	}
	ans, err := e.runPlanned(cctx, ctx, q, nil, nil)
	if ans != nil {
		ans.Resources.FixpointRounds = e.fixpointRounds - rounds
	}
	return ans, err
}

// runPlanned evaluates a pure query under e.mu against the refreshed
// effective universe. With pl == nil a plan is acquired according to the
// engine options: from the plan cache (default), compiled cold
// (NoPlanCache), or skipped entirely (Interpret / NoSchedule / traced
// runs, which analyze the caller's AST transiently). Prepared queries
// pass their own plan. All routes apply the same cost ranks, so answers
// — including raw row order — are byte-identical across them.
func (e *Engine) runPlanned(cctx context.Context, ctx context.Context, q *ast.Query, pl *queryPlan, info *PlanInfo) (*Answer, error) {
	eff := e.effective
	obsOn := e.em != nil || e.tracer != nil
	var start time.Time
	var span *obs.Span
	if obsOn {
		start = time.Now()
		span = e.tracer.Start("query")
		annotateOpID(span, ctx)
	}
	// Answer variables are those with a positive occurrence; variables
	// confined to negations are existential and never bind outward.
	body := q.Body
	var vars []string
	var an *bodyAnalysis
	switch {
	case e.opts.NoSchedule:
		// Ablation mode: strict left-to-right evaluation, no planner.
		vars = ast.PositiveVars(q.Body)
	case span != nil:
		// Traced queries carry per-conjunct probes keyed by the caller's
		// AST identity, so they evaluate q itself — with a transient
		// analysis carrying the same cost ranks a plan would.
		vars = ast.PositiveVars(q.Body)
		an = e.analyzeBody(q.Body, eff, nil)
	case e.opts.Interpret:
		vars = ast.PositiveVars(q.Body)
		an = e.analyzeBody(q.Body, eff, nil)
	default:
		if pl == nil {
			var state string
			pl, state = e.planFor(q, eff, e.epoch, e.opts, e.em)
			info = &PlanInfo{Cache: state}
			if state == "miss" || state == "cold" {
				info.CompileNS = pl.compileNS
			}
		}
		// Execute the plan's own AST: every evaluation of one plan walks
		// identical pointers, so structurally equal queries enumerate
		// identically whether they hit or miss the cache.
		body = pl.q.Body
		vars = pl.vars
		an = pl.an
	}
	ans := newAnswer(vars)
	var local Stats
	ev := &evaluator{env: NewEnv(), indexes: e.indexes, useIndex: e.opts.UseIndex, noSchedule: e.opts.NoSchedule, stats: &local, ctx: cctx}
	if an != nil {
		ev.consumedCache = an.consumed
		ev.ranks = an.ranks
	}
	var probes map[ast.Expr]*conjunctProbe
	if span != nil {
		// Traced queries carry per-conjunct child spans, measured by the
		// same probes EXPLAIN ANALYZE uses.
		probes = newProbes(q.Body.Conjuncts)
		ev.analyze = &analyzeState{probes: probes}
	}
	// Parallel path: partition the query's first scan across workers and
	// merge the per-chunk rows in chunk order, reproducing the sequential
	// row order exactly. Traced queries (span != nil) stay sequential —
	// per-conjunct probes are not parallel-safe.
	var err error
	ran := false
	if e.opts.Workers > 1 && span == nil {
		var chunks [][]Row
		var ok bool
		chunks, ok, err = parallelEnumerate(e, cctx, body, eff, snapshotOf(vars), &local, an, e.opts, e.em)
		if ok {
			ran = true
			if err == nil {
				var mergeStart time.Time
				if e.em != nil {
					mergeStart = time.Now()
				}
				for _, rows := range chunks {
					for _, r := range rows {
						ans.add(r)
					}
				}
				if e.em != nil {
					e.em.mergeLatency.Observe(time.Since(mergeStart))
				}
			}
		}
	}
	if !ran {
		err = ev.satisfy(body, eff, func() error {
			ans.add(ev.env.Snapshot(vars))
			return nil
		})
	}
	e.addStats(local)
	if obsOn {
		if e.em != nil {
			e.em.record(&e.em.query, start, local, err)
		}
		if span != nil {
			span.SetInt("rows", int64(ans.Len()))
			span.SetInt("elements_scanned", int64(local.ElementsScanned))
			span.SetInt("index_probes", int64(local.IndexProbes))
			attachConjunctSpans(span, q.Body.Conjuncts, probes)
			span.End()
		}
	}
	if err != nil {
		return nil, err
	}
	ans.Plan = info
	ans.Resources = resourcesFrom(local, ans.Len())
	return ans, nil
}

// runSnapshot evaluates a pure query against a pinned immutable version
// with NO engine lock held — the MVCC fast path. It mirrors runPlanned:
// the same plan acquisition (from the planMu-guarded cache, keyed by the
// version's epoch), the same cost ranks, the same parallel-partition
// path, so answers — including raw row order — are byte-identical to the
// locked path at the same epoch. Shared state it touches is individually
// synchronized: the plan cache under planMu, the index cache's sharded
// read locks, the statistics sync.Map, and the aggregate counters under
// statsMu. pl, when non-nil, is a prepared query's revalidated plan.
func (e *Engine) runSnapshot(cctx context.Context, ctx context.Context, q *ast.Query, v *version, pl *queryPlan, info *PlanInfo) (*Answer, error) {
	eff := v.eff
	em := v.em
	var start time.Time
	if em != nil {
		start = time.Now()
	}
	body := q.Body
	var vars []string
	var an *bodyAnalysis
	switch {
	case v.opts.NoSchedule:
		vars = ast.PositiveVars(q.Body)
	case v.opts.Interpret:
		vars = ast.PositiveVars(q.Body)
		an = e.analyzeBody(q.Body, eff, nil)
	default:
		if pl == nil {
			var state string
			pl, state = e.planFor(q, eff, v.epoch, v.opts, em)
			info = &PlanInfo{Cache: state}
			if state == "miss" || state == "cold" {
				info.CompileNS = pl.compileNS
			}
		}
		body = pl.q.Body
		vars = pl.vars
		an = pl.an
	}
	ans := newAnswer(vars)
	var local Stats
	ev := &evaluator{env: NewEnv(), indexes: e.indexes, useIndex: v.opts.UseIndex, noSchedule: v.opts.NoSchedule, stats: &local, ctx: cctx}
	if an != nil {
		ev.consumedCache = an.consumed
		ev.ranks = an.ranks
	}
	var err error
	ran := false
	if v.opts.Workers > 1 {
		var chunks [][]Row
		var ok bool
		chunks, ok, err = parallelEnumerate(e, cctx, body, eff, snapshotOf(vars), &local, an, v.opts, em)
		if ok {
			ran = true
			if err == nil {
				var mergeStart time.Time
				if em != nil {
					mergeStart = time.Now()
				}
				for _, rows := range chunks {
					for _, r := range rows {
						ans.add(r)
					}
				}
				if em != nil {
					em.mergeLatency.Observe(time.Since(mergeStart))
				}
			}
		}
	}
	if !ran {
		err = ev.satisfy(body, eff, func() error {
			ans.add(ev.env.Snapshot(vars))
			return nil
		})
	}
	e.addStats(local)
	if em != nil {
		em.record(&em.query, start, local, err)
	}
	if err != nil {
		return nil, err
	}
	ans.Plan = info
	ans.Resources = resourcesFrom(local, ans.Len())
	return ans, nil
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
	obsOn := e.em != nil || e.tracer != nil
	var start time.Time
	var span *obs.Span
	if obsOn {
		start = time.Now()
		span = e.tracer.Start("exec")
		annotateOpID(span, ctx)
	}
	var local Stats
	rounds := e.fixpointRounds
	u := &updater{
		ev:     &evaluator{env: NewEnv(), indexes: e.indexes, useIndex: e.opts.UseIndex, noSchedule: e.opts.NoSchedule, stats: &local, ctx: cancellable(ctx)},
		undo:   &undoLog{},
		result: &ExecResult{},
		span:   span,
	}
	u.cow = e.cowSetUndo(u)
	err := e.execBody(q.Body, u, map[string]object.Object{}, map[*compiledClause]bool{})
	if err == nil {
		err = e.validate(u)
	}
	e.addStats(local)
	if obsOn {
		if e.em != nil {
			e.em.record(&e.em.exec, start, local, err)
		}
		if span != nil {
			span.SetInt("bindings", int64(u.result.Bindings))
			span.SetInt("changes", int64(u.result.total()))
			span.End()
		}
	}
	if err != nil {
		u.undo.rollback()
		e.markDirty(false)
		return nil, err
	}
	if u.result.Changed() {
		e.markDirty(monotoneResult(u.result))
	}
	u.result.Resources = resourcesFrom(local, u.result.Bindings)
	u.result.Resources.FixpointRounds = e.fixpointRounds - rounds
	return u.result, nil
}

// monotoneResult reports whether a request only added facts.
func monotoneResult(r *ExecResult) bool {
	return r.ElemsDeleted == 0 && r.AttrsDeleted == 0 && r.ValuesSet == 0
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
	p, ok := e.regs.lookup(db, name)
	if !ok {
		return nil, fmt.Errorf("core: no update program %s.%s", db, name)
	}
	obsOn := e.em != nil || e.tracer != nil
	var start time.Time
	var span *obs.Span
	if obsOn {
		start = time.Now()
		span = e.tracer.Start("call")
		annotateOpID(span, ctx)
	}
	var local Stats
	rounds := e.fixpointRounds
	u := &updater{
		ev:     &evaluator{env: NewEnv(), indexes: e.indexes, useIndex: e.opts.UseIndex, noSchedule: e.opts.NoSchedule, stats: &local, ctx: cancellable(ctx)},
		undo:   &undoLog{},
		result: &ExecResult{},
		span:   span,
	}
	u.cow = e.cowSetUndo(u)
	err := e.invokeProgramDirect(p, params, u, map[*compiledClause]bool{})
	if err == nil {
		err = e.validate(u)
	}
	e.addStats(local)
	if obsOn {
		if e.em != nil {
			e.em.record(&e.em.call, start, local, err)
		}
		if span != nil {
			span.SetInt("changes", int64(u.result.total()))
			span.End()
		}
	}
	if err != nil {
		u.undo.rollback()
		e.markDirty(false)
		return nil, err
	}
	if u.result.Changed() {
		e.markDirty(monotoneResult(u.result))
	}
	u.result.Resources = resourcesFrom(local, u.result.Bindings)
	u.result.Resources.FixpointRounds = e.fixpointRounds - rounds
	return u.result, nil
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

// refreshEffective rematerializes views when stale. Callers hold e.mu.
// A nil ctx means uncancellable.
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
	var derived *object.Tuple
	var stats RecomputeStats
	var err error
	if e.opts.IncrementalViews && e.monotoneDirty && e.rulesMonotone && e.derived != nil {
		// Purely additive change + negation-free rules: grow the
		// existing overlay (sound because derivation is monotone).
		derived = e.derived
		stats, err = e.materializeInto(ctx, derived, span)
		stats.Incremental = true
	} else {
		derived, stats, err = e.materialize(ctx, span)
	}
	if !start.IsZero() && e.em != nil {
		e.em.matCount.Inc()
		if stats.Incremental {
			e.em.matIncremental.Inc()
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
		if stats.Incremental {
			span.SetStr("mode", "incremental")
		}
		span.End()
	}
	if err != nil {
		return nil, err
	}
	e.derived = derived
	e.lastRecompute = stats
	e.fixpointRounds += uint64(stats.Iterations)
	e.effective = mergeUniverse(e.base, derived)
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
	// Per-relation cache invalidation: retain index and statistics
	// entries whose sets are still reachable from the new effective
	// universe, drop the rest. Sets shared by reference across the merge
	// (every relation an unchanged base database contributes) keep their
	// caches — only relations rebuilt by the merge (derived overlaps,
	// meta) lose theirs. Keeping is safe because both caches re-check the
	// set's version on use; dropping merely forces a rebuild.
	live := make(map[*object.Set]bool)
	e.effective.Each(func(_ string, v object.Object) bool {
		dbt, ok := v.(*object.Tuple)
		if !ok {
			return true
		}
		dbt.Each(func(_ string, rv object.Object) bool {
			if set, ok := rv.(*object.Set); ok {
				live[set] = true
			}
			return true
		})
		return true
	})
	// Sets shared into retained MVCC snapshots stay live too: in-flight
	// readers may still probe their indexes and statistics.
	for _, v := range e.versions {
		for _, set := range v.sets {
			live[set] = true
		}
	}
	e.indexes.retain(live)
	e.pruneStats(live)
	e.dirty = false
	e.monotoneDirty = false
	return e.effective, nil
}

// execBody is the shared request loop used by Execute, program clause
// bodies, and view-update translations: classify each conjunct as query /
// program call / update and process left → right over the substitution
// bag.
func (e *Engine) execBody(body *ast.TupleExpr, u *updater, seed map[string]object.Object, active map[*compiledClause]bool) error {
	type envMap = map[string]object.Object
	envs := []envMap{seed}
	for _, conjunct := range body.Conjuncts {
		if err := validateUpdateConjunct(conjunct); err != nil {
			return err
		}
		switch {
		case !ast.HasUpdate(conjunct):
			// Program call or query conjunct.
			if p, params, ok := e.programCall(conjunct); ok {
				for _, em := range envs {
					u.ev.env = envFrom(em)
					bound, err := bindCallParams(params.clause, params.args, u.ev.env)
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
			var extended []envMap
			dedupe := newAnswer(nil)
			for _, em := range envs {
				u.ev.env = envFrom(em)
				err := u.ev.satisfy(conjunct, eff, func() error {
					snap := u.ev.env.Snapshot(nil)
					if dedupe.add(snap) {
						extended = append(extended, snap)
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
			envs = extended

		default:
			// Update conjunct: route to a view updater or the base.
			for _, em := range envs {
				u.ev.env = envFrom(em)
				if err := e.execUpdateConjunct(conjunct, u, active); err != nil {
					return err
				}
			}
			e.markDirty(monotoneResult(u.result))
		}
	}
	u.result.Bindings = len(envs)
	return nil
}

// callSite carries a matched program-call conjunct.
type callSite struct {
	clause *compiledClause
	args   *ast.TupleExpr
}

type matchedCall struct {
	clause *compiledClause
	args   *ast.TupleExpr
}

// programCall recognizes `.db.name(args…)` conjuncts naming a registered
// update program. Registered program namespaces shadow same-named data.
func (e *Engine) programCall(conjunct ast.Expr) (*Program, *matchedCall, bool) {
	a, ok := conjunct.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return nil, nil, false
	}
	db, ok := constStrName(a.Name)
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
	name, ok := constStrName(nameAttr.Name)
	if !ok {
		return nil, nil, false
	}
	p, found := e.regs.lookup(db, name)
	if !found {
		return nil, nil, false
	}
	var args *ast.TupleExpr
	switch x := nameAttr.Expr.(type) {
	case *ast.SetExpr:
		if x.Sign != ast.SignNone {
			return nil, nil, false
		}
		switch in := x.X.(type) {
		case *ast.TupleExpr:
			args = in
		case ast.Epsilon:
			args = &ast.TupleExpr{}
		case *ast.AttrExpr:
			args = &ast.TupleExpr{Conjuncts: []ast.Expr{in}}
		default:
			return nil, nil, false
		}
	case ast.Epsilon:
		args = &ast.TupleExpr{}
	default:
		return nil, nil, false
	}
	if len(p.Clauses) == 0 {
		return nil, nil, false
	}
	return p, &matchedCall{clause: p.Clauses[0], args: args}, true
}

func constStrName(t ast.Term) (string, bool) {
	c, ok := t.(ast.Const)
	if !ok {
		return "", false
	}
	s, ok := c.Value.(object.Str)
	if !ok {
		return "", false
	}
	return string(s), true
}

// invokeProgram executes every clause of a program, in order, under the
// given parameter bindings — re-matching each clause's own parameter
// declaration (clauses may declare different subsets).
func (e *Engine) invokeProgram(p *Program, bound map[string]object.Object, u *updater, active map[*compiledClause]bool) error {
	return e.invokeProgramDirect(p, bound, u, active)
}

func (e *Engine) invokeProgramDirect(p *Program, bound map[string]object.Object, u *updater, active map[*compiledClause]bool) error {
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
		seed := map[string]object.Object{}
		for k, v := range bound {
			if varDeclared(cc, k) {
				seed[k] = v
			}
		}
		active[cc] = true
		prev := u.ev.consumedCache
		u.ev.consumedCache = cc.consumed
		err := e.execBody(cc.src.Body, u, seed, active)
		u.ev.consumedCache = prev
		delete(active, cc)
		if err != nil {
			return fmt.Errorf("core: program %s.%s: %w", p.DB, p.Name, err)
		}
	}
	return nil
}

func varDeclared(cc *compiledClause, name string) bool {
	for _, v := range cc.paramVars {
		if v == name {
			return true
		}
	}
	return false
}

// execUpdateConjunct routes one update conjunct: updates touching derived
// (view) relations dispatch to registered view-update programs; everything
// else applies to the base universe.
func (e *Engine) execUpdateConjunct(conjunct ast.Expr, u *updater, active map[*compiledClause]bool) error {
	if db, rel, sign, inner, ok := e.updateTarget(conjunct, u.ev.env); ok && e.isDerived(db, rel) {
		cc, found := e.regs.lookupViewUpdater(db, rel, sign)
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
		prev := u.ev.consumedCache
		u.ev.consumedCache = cc.consumed
		err = e.execBody(cc.src.Body, u, bound, active)
		u.ev.consumedCache = prev
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
			if db, ok := resolveName(a.Name, u.ev.env); ok && e.readOnly[db] {
				return &ReadOnlyDBError{DB: db}
			}
		}
		if db, ok := constStrName(a.Name); ok && e.dbIsDerived(db) {
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
	db, okDB := resolveName(a.Name, env)
	if !okDB {
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
	rel, okRel := resolveName(relAttr.Name, env)
	if !okRel {
		return "", "", 0, nil, false
	}
	se, isSet := relAttr.Expr.(*ast.SetExpr)
	if !isSet || se.Sign == ast.SignNone {
		return "", "", 0, nil, false
	}
	return db, rel, se.Sign, se.X, true
}

func resolveName(t ast.Term, env *Env) (string, bool) {
	switch n := t.(type) {
	case ast.Const:
		s, ok := n.Value.(object.Str)
		return string(s), ok
	case ast.Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return "", false
		}
		s, ok := v.(object.Str)
		return string(s), ok
	default:
		return "", false
	}
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
