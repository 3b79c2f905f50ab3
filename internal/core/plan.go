package core

import (
	"sync/atomic"
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
// top-level conjuncts in — compiled with every nested list's into step
// programs (sched.go) — and that is all a later read checks (fits): a
// plan with no choice to make is reused as it is ("hit"), and one with a
// choice is re-ranked against the read's snapshot and kept, programs and
// all, while every pair of its conjuncts is ordered as before ("stale"),
// so its enumeration order stays byte-identical to a fresh compilation.
// Nor do plans carry literals: a plan is keyed by its statement's shape
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
// schedules cost-based, the top-level body (nested lists keep source
// order), and the step programs that fix every list's order for one
// entry signature (sched.go). Evaluators (including parallel workers)
// share it read-only.
type bodyAnalysis struct {
	sc   *scope
	body *ast.TupleExpr
	// width is the body's output row width: its scope numbers the output
	// variables (answer variables, head variables) 1..width.
	width int
	// ranks are the cost ranks of body's conjuncts; nil (a NoSchedule
	// plan, and an update request's body) schedules in source order.
	ranks []float64
	// progs holds the step program of every list the schedule covers, by
	// tuple ID; conts is how many resume slots they run with. nil until
	// compiled (compiled, request): then every list is scheduled at
	// entry.
	progs []*program
	conts int
	// lits are the literals a query read binds into the scope's literal
	// slots (sc.lits), its own statement's: set on a per-read copy
	// (bind), never on the plan the cache shares.
	lits []object.Object
}

// top returns the body's program, nil for an empty body or one not
// compiled.
func (an *bodyAnalysis) top() *program {
	if int(an.body.ID) < len(an.progs) {
		return an.progs[an.body.ID]
	}
	return nil
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

// ranked compiles a resolved rule body for one run: cost ranks for its
// top-level conjuncts against the given effective universe, and its step
// programs for an entry that binds the slots entry marks (nil: none). Rule
// bodies reuse one resolution across materializations and rank per run.
// Safe without e.mu when eff is an immutable snapshot (statistics live in
// each set's memo).
func (e *Engine) ranked(an *bodyAnalysis, eff *object.Tuple, entry []bool) *bodyAnalysis {
	return an.compiled(rank(an, eff), entry, e.opts.NoSchedule)
}

// rank returns the cost ranks of an's top-level conjuncts against eff.
func rank(an *bodyAnalysis, eff *object.Tuple) []float64 {
	ranks := make([]float64, len(an.body.Conjuncts))
	for i, c := range an.body.Conjuncts {
		ranks[i] = estimateConjunct(c, eff)
	}
	return ranks
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
	// rows is the row count of the plan's last answer, at most
	// rowHintMax: the capacity its next read's row set starts with
	// (rowSet.presize). It lives here, not on the analysis, because a
	// read with literals evaluates a copy of that (bind).
	rows atomic.Int32
}

// rowHintMax caps a row hint, so one huge answer cannot make every later
// read of its shape reserve for it.
const rowHintMax = 1 << 16

// rowHint is the row count the plan's next answer is presized for.
func (pl *queryPlan) rowHint() int { return int(pl.rows.Load()) }

// noteRows records an answer's row count as the plan's row hint. Reads
// of one shape share the plan, so it stores only a changed count: a
// shape whose answers keep their size leaves the cache line shared.
func (pl *queryPlan) noteRows(n int) {
	if n := int32(min(n, rowHintMax)); pl.rows.Load() != n {
		pl.rows.Store(n)
	}
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
// stamped at the given epoch: its ranks and the step programs of a read,
// which binds the literal slots and nothing else. A NoSchedule key
// compiles a rank-free plan that runs strictly left to right. Safe
// without e.mu when eff is an immutable snapshot.
func (e *Engine) compilePlan(q *ast.Query, eff *object.Tuple, key planKey, epoch uint64, em *engineMetrics) *queryPlan {
	start := time.Now()
	an := resolveUnit(ast.PositiveVars(q.Body), q.Body, true)
	var ranks []float64
	if !key.noSchedule {
		ranks = rank(an, eff)
	}
	an = an.compiled(ranks, nil, key.noSchedule)
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
// "miss", "cold"). A cached plan is reused whenever its schedule fits
// the read's snapshot ("hit" or "stale"); otherwise a fresh one is
// compiled ("miss"). rv is a pinned version's view. The cache is guarded by
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
	cur := e.plans.get(key, true)
	if cur != nil {
		if state := e.fits(cur, eff, epoch); state != "" {
			// A stale plan is restamped upward only, so a reader pinned to
			// an older snapshot never drags a fresher plan's stamp back.
			if state == "stale" && epoch > cur.epoch {
				cur.epoch = epoch
			}
			e.planHits++
			if em != nil {
				em.planCacheHit.Inc()
			}
			return cur, state
		}
	}
	pl := e.compilePlan(q, eff, key, epoch, em)
	e.planMisses++
	if em != nil {
		em.planCacheMiss.Inc()
	}
	// A plan compiled for an older pinned snapshot does not evict one
	// stamped for a newer universe.
	if (cur == nil || epoch > cur.epoch) && e.plans.put(key, pl) {
		e.planEvictions++
		if em != nil {
			em.planCacheEvict.Inc()
		}
	}
	return pl, "miss"
}

// stmtShape is what a read needs of its statement to find a plan and
// run it: a tree of its shape to compile from, the shape's fingerprint,
// and the statement's own literals, which the read binds into the plan's
// literal slots.
type stmtShape struct {
	q    *ast.Query
	fp   uint64
	lits []object.Object
}

// shapeOf is q's own shape: one walk yields the fingerprint and the
// literals.
func shapeOf(q *ast.Query) stmtShape {
	fp, lits := ast.FingerprintLits(q, make([]object.Object, 0, 4)) // a point lookup has two or three
	return stmtShape{q: q, fp: fp, lits: lits}
}

// key keys the shape's plan under the options that change compilation.
func (s stmtShape) key(opts Options) planKey {
	return planKey{fp: s.fp, useIndex: opts.UseIndex, noSchedule: opts.NoSchedule}
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
