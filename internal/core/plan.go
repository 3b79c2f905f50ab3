package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// Compiled query plans (DESIGN.md §11). A plan is the reusable half of a
// query evaluation: the per-conjunct safety analysis (consumed-variable
// lists), the cost-based conjunct ranks derived from catalog statistics,
// and the answer-variable signature. Plans carry no data and bind no
// names — the evaluator resolves every name against the version its read
// pinned — so a cached plan can never produce a wrong answer; the one
// thing a plan fixes is its schedule, the order pickConjunct takes its
// top-level conjuncts in, and that is all a later read checks (fits): a
// plan with no choice to make is reused as it is ("hit"), and one with a
// choice is re-ranked against the read's snapshot and kept while every
// pair of its conjuncts is ordered as before ("stale"), so its
// enumeration order stays byte-identical to a fresh compilation. Nor do
// plans carry literals: a plan is keyed by its statement's shape
// (ast.Fingerprint) and reads each value literal from a slot the read
// binds (slots.go), and its ranks depend only on names and per-attribute
// distinct counts, never on a literal's value — so a plan compiled for
// one statement enumerates every other statement of its shape exactly as
// their own cold compiles would.

// costHuge ranks a conjunct whose enumeration is data-dependent in a way
// statistics cannot bound (a higher-order database or relation variable):
// it runs after every estimable conjunct that is runnable alongside it.
const costHuge = 1e18

// bodyAnalysis is a body compiled for execution: its slot resolution
// (slots.go) — the scope, the resolved copy of the AST the evaluator
// walks, and with them the consumed-slot lists of every nested conjunct
// list (safety) — plus cost ranks for the one conjunct list that
// schedules cost-based, the top-level body; nested lists keep source
// order. Evaluators (including parallel workers) share it read-only.
type bodyAnalysis struct {
	sc   *scope
	body *ast.TupleExpr
	// width is the body's output row width: its scope numbers the output
	// variables (answer variables, head variables) 1..width.
	width int
	// ranks are the cost ranks of body's conjuncts; nil (a NoSchedule
	// plan, and a rule before its first run of a materialization)
	// schedules in source order.
	ranks []float64
	// lits are the literals a query read binds into the scope's literal
	// slots (sc.lits), its own statement's: set on a per-read copy
	// (bind), never on the plan the cache shares.
	lits []object.Object
}

// bind returns the analysis a read of a statement with the given
// literals evaluates: a copy carrying them, or an itself when the scope
// lifted none.
func (an *bodyAnalysis) bind(lits []object.Object) *bodyAnalysis {
	if len(an.sc.lits) == 0 {
		return an
	}
	out := *an
	out.lits = lits
	return &out
}

// newEnv returns a substitution over the scope with only the literal
// slots bound. Those bindings are not on the trail, so no Undo retracts
// them.
func (an *bodyAnalysis) newEnv() *Env {
	env := newEnv(an.sc.size())
	for i, slot := range an.sc.lits {
		env.vals[slot] = an.lits[i]
	}
	return env
}

// output returns the body's output variables, in row order. The slice
// becomes the public Answer.Vars and aliases the scope cached plans
// share, so it is capped: a caller's append copies instead of writing
// into the plan's name table.
func (an *bodyAnalysis) output() []string { return an.sc.names[1 : 1+an.width : 1+an.width] }

// seed converts name-keyed parameter bindings — the one place the API
// hands the engine a map — into a substitution over the body's scope.
// Only output variables (a clause's declared parameters) are seeded.
func (an *bodyAnalysis) seed(params map[string]object.Object) []object.Object {
	row := make([]object.Object, an.sc.size())
	for name, val := range params {
		if s := an.sc.lookup(name); s != 0 && int(s) <= an.width {
			row[s] = val
		}
	}
	return row
}

// resolveUnit slot-resolves body into a fresh scope whose first slots are
// the output variables. The analysis is environment independent, so it is
// computed once per compiled unit instead of once per evaluation. A query
// (lift) also gets a slot per value-position literal.
func resolveUnit(output []string, body *ast.TupleExpr, lift bool) *bodyAnalysis {
	sc := newScope(output)
	sc.lift = lift
	return &bodyAnalysis{sc: sc, body: sc.resolveBody(body), width: len(output)}
}

// ranked pairs a resolved body with cost ranks for its top-level
// conjuncts, computed against the given effective universe (rule bodies
// reuse one resolution across materializations and rank per
// materialization). Safe without e.mu when eff is an immutable snapshot
// (statistics live in each set's memo).
func (e *Engine) ranked(an *bodyAnalysis, eff *object.Tuple) *bodyAnalysis {
	out := *an
	out.ranks = make([]float64, len(an.body.Conjuncts))
	for i, c := range an.body.Conjuncts {
		out.ranks[i] = estimateConjunct(c, eff)
	}
	return &out
}

// queryPlan is a compiled query: its own slot-resolved AST (cache hits
// execute the plan's AST, so every evaluation of one plan walks identical
// pointers) and the body analysis — whose output variables are the answer
// signature — with per-conjunct row estimates, stamped with the engine
// epoch at which its schedule was last checked.
type queryPlan struct {
	key       planKey
	q         *ast.Query // Body is an.body
	an        *bodyAnalysis
	epoch     uint64
	compileNS int64
}

// PlanInfo reports how an answer's plan was obtained; attached to every
// Answer so the facade and query log can surface cache behavior.
type PlanInfo struct {
	// Cache is "hit" (ran with no plan work: its epoch unchanged, or a
	// plan with no schedule to choose), "stale" (re-ranked after an epoch
	// bump, and the order held), "miss" (compiled and cached), or "cold"
	// (compiled, caching disabled).
	Cache string
	// CompileNS is the compile time in nanoseconds when this call
	// compiled a plan; 0 on cache hits.
	CompileNS int64
	// Fingerprint is the query's shape fingerprint (the plan-cache
	// key the planner computed), so callers that account per statement
	// digest need not hash the AST again.
	Fingerprint uint64
}

// planInfo reports a plan obtained with the given cache outcome.
func planInfo(pl *queryPlan, state string) *PlanInfo {
	info := &PlanInfo{Cache: state, Fingerprint: pl.key.fp}
	if state == "miss" || state == "cold" {
		info.CompileNS = pl.compileNS
	}
	return info
}

// compilePlan builds a plan for q against the given effective universe,
// stamped at the given epoch. A NoSchedule key compiles a rank-free plan:
// the scheduler runs it strictly left to right. Safe without e.mu when
// eff is an immutable snapshot.
func (e *Engine) compilePlan(q *ast.Query, eff *object.Tuple, key planKey, epoch uint64, em *engineMetrics) *queryPlan {
	start := time.Now()
	an := resolveUnit(ast.PositiveVars(q.Body), q.Body, true)
	if !key.noSchedule {
		an = e.ranked(an, eff)
	}
	pl := &queryPlan{
		key:   key,
		q:     &ast.Query{Body: an.body},
		an:    an,
		epoch: epoch,
	}
	pl.compileNS = time.Since(start).Nanoseconds()
	if em != nil {
		em.planCompile.Observe(time.Duration(pl.compileNS))
	}
	return pl
}

// fits reports how pl serves a read of eff at epoch: "hit" when pl was
// checked at epoch, or has no schedule to choose — at most one top-level
// conjunct, or none ranked (NoSchedule) — so ranks cannot change what it
// does; "stale" when eff's ranks order every pair of its conjuncts as
// pl's do under pickConjunct's strict <, so a fresh compilation would
// schedule it identically; "" when it must recompile. The ranks are
// compared in a stack buffer: a kept plan allocates nothing.
func (e *Engine) fits(pl *queryPlan, eff *object.Tuple, epoch uint64) string {
	old := pl.an.ranks
	if pl.epoch == epoch || len(old) < 2 {
		return "hit"
	}
	var buf [8]float64
	ranks := buf[:0]
	for _, c := range pl.an.body.Conjuncts {
		ranks = append(ranks, estimateConjunct(c, eff))
	}
	for j := 1; j < len(ranks); j++ {
		for i := range j {
			if (ranks[j] < ranks[i]) != (old[j] < old[i]) {
				return ""
			}
		}
	}
	return "stale"
}

// planFor returns a plan for q, consulting the fingerprint-keyed cache
// unless caching is disabled, plus the cache outcome ("hit", "stale",
// "miss", "cold"). rv is a pinned version's view. The cache is guarded by
// e.planMu, not e.mu, so readers share it without contending with
// writers on the engine mutex. A peek (EXPLAIN) takes the plan a read
// would run without counting the lookup, restamping the plan or caching
// a compile, so explaining a query leaves the cache as it found it.
func (e *Engine) planFor(q *ast.Query, key planKey, rv readView, peek bool) (*queryPlan, string) {
	eff, epoch, em := rv.eff, rv.epoch, rv.em
	if rv.opts.NoPlanCache {
		return e.compilePlan(q, eff, key, epoch, em), "cold"
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if peek {
		if cur := e.plans.get(key, false); cur != nil && e.fits(cur, eff, epoch) != "" {
			return cur, "hit"
		}
		return e.compilePlan(q, eff, key, epoch, nil), "miss"
	}
	pl, state, keep := e.reuse(e.plans.get(key, true), q, eff, key, epoch, em)
	if state == "miss" {
		e.planMisses++
		if em != nil {
			em.planCacheMiss.Inc()
		}
	} else {
		e.planHits++
		if em != nil {
			em.planCacheHit.Inc()
		}
	}
	if keep && e.plans.put(key, pl) {
		e.planEvictions++
		if em != nil {
			em.planCacheEvict.Inc()
		}
	}
	return pl, state
}

// planKeyFor keys q's plan — its shape — under the options that change
// compilation, and returns q's literals, which a read binds into the
// plan's literal slots: one walk yields both.
func planKeyFor(q *ast.Query, opts Options) (planKey, []object.Object) {
	fp, lits := ast.FingerprintLits(q, make([]object.Object, 0, 4)) // a point lookup has two or three
	return planKey{fp: fp, useIndex: opts.UseIndex, noSchedule: opts.NoSchedule}, lits
}

// reuse is the one hit / stale / recompile step, shared by the plan cache
// and prepared queries; callers hold the lock that guards cur. cur (nil =
// none) is reused whenever its schedule fits eff ("hit" or "stale"). A
// stale plan is re-stamped upward only, so a reader pinned to an older
// snapshot never drags a fresher plan's stamp backwards. Otherwise a
// fresh plan is compiled ("miss"), and keep reports whether it replaces
// cur: not when cur is stamped for a newer universe than this pinned
// snapshot, whose private plan must not evict the fresher one.
func (e *Engine) reuse(cur *queryPlan, q *ast.Query, eff *object.Tuple, key planKey, epoch uint64, em *engineMetrics) (pl *queryPlan, state string, keep bool) {
	if cur != nil {
		if state = e.fits(cur, eff, epoch); state != "" {
			if state == "stale" && epoch > cur.epoch {
				cur.epoch = epoch
			}
			return cur, state, false
		}
	}
	return e.compilePlan(q, eff, key, epoch, em), "miss", cur == nil || epoch > cur.epoch
}

// estimateConjunct estimates the rows one top-level conjunct enumerates,
// from catalog statistics. Filters (constraints, negations, atomics) cost
// nothing — once runnable they only prune. eff must not change during
// the call: a frozen snapshot, or the merged universe of a refresh under
// e.mu.
func estimateConjunct(c ast.Expr, eff *object.Tuple) float64 {
	switch x := c.(type) {
	case *ast.AttrExpr:
		return estimateAttr(x, eff)
	case *ast.TupleExpr:
		return 1
	case *ast.Constraint:
		if x.Op == ast.OpEQ {
			_, lVar := x.L.(ast.Var)
			_, rVar := x.R.(ast.Var)
			if lVar && rVar {
				// `X = Y` consumes neither side (the runtime binds
				// whichever is free once one is bound), so the safety
				// analysis always calls it runnable. Source order placed it
				// after its producers; cost order must too, or it runs with
				// both sides unbound and raises UnsafeError.
				return costHuge
			}
		}
		return 0
	default:
		// Epsilon, *Not, *Atomic, *VarExpr: pure tests or single bindings
		// against the universe object itself.
		return 0
	}
}

// estimateAttr estimates a `.db(...)` conjunct by resolving its constant
// path against the effective universe and consulting relation statistics.
func estimateAttr(a *ast.AttrExpr, eff *object.Tuple) float64 {
	db, ok := ast.ConstName(a.Name)
	if !ok {
		// Higher-order database enumeration: unbounded by statistics.
		return costHuge
	}
	obj, has := eff.Get(db)
	if !has {
		return 0 // absent database: the conjunct enumerates nothing
	}
	dbt, isTup := obj.(*object.Tuple)
	te, isTE := a.Expr.(*ast.TupleExpr)
	if !isTup || !isTE {
		return 1 // navigation into a non-tuple or a non-conjunct body
	}
	cost := 0.0
	for _, rc := range te.Conjuncts {
		ra, ok := rc.(*ast.AttrExpr)
		if !ok {
			continue // relation-level filters cost nothing extra
		}
		rel, ok := ast.ConstName(ra.Name)
		if !ok {
			return costHuge // higher-order relation enumeration
		}
		robj, rhas := dbt.Get(rel)
		if !rhas {
			continue // absent relation enumerates nothing
		}
		set, ok := robj.(*object.Set)
		if !ok {
			cost++
			continue
		}
		cost += estimateSet(ra.Expr, set)
	}
	return cost
}

// estimateSet estimates the rows a relation-level expression yields from
// a set: full cardinality for a scan, cardinality over the attribute's
// distinct count for an equality-pinned scan or index probe. A negation
// only prunes, so it costs nothing, as at the conjunct level.
func estimateSet(inner ast.Expr, set *object.Set) float64 {
	card := float64(set.Len())
	se, ok := inner.(*ast.SetExpr)
	if !ok {
		if _, neg := inner.(*ast.Not); neg {
			return 0
		}
		return 1 // atomic/navigate on the set value itself
	}
	te, ok := se.X.(*ast.TupleExpr)
	if !ok {
		return card
	}
	for _, c := range te.Conjuncts {
		attr, ok := staticGroundEq(c)
		if !ok {
			continue
		}
		if d := set.Stats().Distinct[attr]; d > 0 {
			return card / float64(d)
		}
		return 1 // equality on an unseen attribute: assume selective
	}
	return card
}

// staticGroundEq recognizes `.attr = const` conjuncts — the statically
// decidable subset of groundEqConjunct (no environment, so bound-variable
// terms do not qualify). A plan's lifted literal is an ast.Const whose
// value has the statement's kind, so it qualifies exactly as the
// statement's own constant would.
func staticGroundEq(c ast.Expr) (string, bool) {
	a, ok := c.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return "", false
	}
	attr, ok := ast.ConstName(a.Name)
	if !ok {
		return "", false
	}
	at, ok := a.Expr.(*ast.Atomic)
	if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
		return "", false
	}
	ct, ok := at.Term.(ast.Const)
	if !ok {
		return "", false
	}
	if !ct.Value.Kind().IsAtomic() {
		return "", false
	}
	return attr, true
}

// ---------------------------------------------------------------------------
// Prepared queries

// PreparedQuery is a query compiled once and executable many times. Each
// execution checks the plan's schedule against the snapshot it reads
// (recompiling when a write flipped its rank order), and names always
// resolve against that snapshot, so a prepared query never returns stale
// answers — preparation only amortizes parsing-free analysis, never
// correctness. Executions are safe for concurrent use: like ad-hoc
// queries they pin the MVCC head snapshot and evaluate lock-free; the
// prepared plan itself is guarded by a small private mutex (held only
// around revalidation, never during evaluation).
type PreparedQuery struct {
	e    *Engine
	lits []object.Object // the statement's literals, bound on every execution
	mu   sync.Mutex      // guards pl: revalidation may restamp or replace it
	pl   *queryPlan
}

// Prepare compiles a query into a reusable plan against the version a
// read would pin. The plan is private to the returned PreparedQuery (it
// does not populate the shared cache).
func (e *Engine) Prepare(q *ast.Query) (*PreparedQuery, error) {
	if e.IsUpdate(q) {
		return nil, fmt.Errorf("core: cannot prepare an update request; use Execute")
	}
	v, _, err := e.pin(nil)
	if err != nil {
		return nil, err
	}
	defer v.unpin()
	key, lits := planKeyFor(q, v.opts)
	return &PreparedQuery{e: e, lits: lits, pl: e.compilePlan(q, v.eff, key, v.epoch, v.em)}, nil
}

// Query executes the prepared plan against the current universe.
func (p *PreparedQuery) Query() (*Answer, error) {
	return p.QueryCtx(context.Background())
}

// revalidate brings the prepared plan up to date against eff at epoch and
// returns the plan to execute plus its cache outcome. A plan stamped for
// a newer universe whose schedule does not fit an older pinned snapshot
// is left untouched, and a throwaway plan is compiled for that snapshot.
func (p *PreparedQuery) revalidate(eff *object.Tuple, epoch uint64, em *engineMetrics) (*queryPlan, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, state, keep := p.e.reuse(p.pl, p.pl.q, eff, p.pl.key, epoch, em)
	if keep {
		p.pl = pl
	}
	return pl, state
}

// QueryCtx executes the prepared plan under a context, on the same read
// path as Engine.QueryCtx. A plan whose rank order a write flipped is
// recompiled in place first.
func (p *PreparedQuery) QueryCtx(ctx context.Context) (*Answer, error) {
	ans, _, err := p.e.ReadCtx(ctx, nil, p, false)
	return ans, err
}
