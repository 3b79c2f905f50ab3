package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// errStop aborts an enumeration from inside a continuation; it never
// escapes the evaluator.
var errStop = errors.New("core: stop enumeration")

// cont is an enumeration continuation: called once per satisfying
// extension of the substitution. Returning errStop unwinds the whole
// enumeration.
type cont func() error

// Stats counts evaluator work, for the benchmark harness and the CLI's
// `\stats` command.
type Stats struct {
	ElementsScanned uint64 // set elements tested by full scans
	IndexProbes     uint64 // set expressions answered via an attribute index
	IndexCandidates uint64 // set elements tested because an index probe returned them
	IndexBuilds     uint64 // attribute indexes (re)built
	AttrEnums       uint64 // higher-order enumerations over attribute names
}

// add accumulates o into s. Each engine operation evaluates against its
// own Stats and merges into the engine totals under statsMu (addStats),
// so per-operation deltas (EXPLAIN ANALYZE, metrics) come for free.
func (s *Stats) add(o Stats) {
	s.ElementsScanned += o.ElementsScanned
	s.IndexProbes += o.IndexProbes
	s.IndexCandidates += o.IndexCandidates
	s.IndexBuilds += o.IndexBuilds
	s.AttrEnums += o.AttrEnums
}

// statsDelta returns after − before, field-wise.
func statsDelta(before, after Stats) Stats {
	return Stats{
		ElementsScanned: after.ElementsScanned - before.ElementsScanned,
		IndexProbes:     after.IndexProbes - before.IndexProbes,
		IndexCandidates: after.IndexCandidates - before.IndexCandidates,
		IndexBuilds:     after.IndexBuilds - before.IndexBuilds,
		AttrEnums:       after.AttrEnums - before.AttrEnums,
	}
}

// conjunctProbe accumulates the runtime behaviour of one top-level query
// conjunct during an ANALYZE (or traced) run: rows produced, evaluator
// work, and self wall time (time inside the conjunct's enumeration minus
// time spent in the downstream continuation). It also holds the state of
// the entry in progress — a body step is active at most once at a time —
// so measuring allocates nothing per row.
type conjunctProbe struct {
	rows        uint64
	selfTime    time.Duration
	scanned     uint64
	indexProbes uint64

	ev         *evaluator
	next       cont
	childStats Stats
	childTime  time.Duration
	enter      cont // row, bound once
}

// row is a measured conjunct's continuation: count the row, and time and
// count the downstream work so the conjunct is not charged for it.
func (p *conjunctProbe) row() error {
	p.rows++
	cb := *p.ev.stats
	cs := time.Now()
	err := p.next()
	p.childTime += time.Since(cs)
	p.childStats.add(statsDelta(cb, *p.ev.stats))
	return err
}

// analyzeState measures the body's program: one probe per step, by step
// position. Nested lists run unprobed.
type analyzeState struct {
	top    *program
	probes []conjunctProbe
}

// newAnalyze returns the measurement state of one run of an's body.
func newAnalyze(an *bodyAnalysis) *analyzeState {
	top := an.top()
	if top == nil {
		return &analyzeState{}
	}
	return &analyzeState{top: top, probes: make([]conjunctProbe, len(top.steps))}
}

// evaluator carries one query evaluation: the substitution under
// construction and feature switches.
type evaluator struct {
	unit
	useIndex   bool
	noSchedule bool
	stats      *Stats
	// ctx, when non-nil, is polled during enumeration so long-running
	// queries observe cancellation. nil (the context-free entry points)
	// reduces checkCtx to a pointer test plus a counter increment.
	ctx context.Context
	ops uint64 // operations since the last ctx poll (amortizes ctx.Err)
	// analyze, when non-nil, measures per-conjunct rows/work/self-time
	// for EXPLAIN ANALYZE and traced queries. nil (the default) costs one
	// pointer test per program entry.
	analyze *analyzeState
	// part, when non-nil, restricts this evaluator's first enumeration
	// of one specific set to a chunk of its elements — the partitioned-
	// scan parallel path (parallel.go). nil costs one pointer test per
	// set enumeration.
	part *partition
	// eqs backs the ground equalities of the index probe being set up;
	// a probe is done with them once it has its candidates.
	eqs [4]object.AttrEq
}

// unit is the evaluator's state for the compiled unit it is running:
// the compiled body with its step programs, the substitution over its
// scope, the resume slots its programs run with, and the programs built
// at entry for lists its schedule does not cover, by ID. An update request
// that invokes a program swaps the callee clause's unit in and the
// caller's back (execBody); query and rule-body evaluators keep one for
// life.
type unit struct {
	// an supplies the scope and the step programs (sched.go).
	an    *bodyAnalysis
	env   *Env
	conts []resume
	adhoc []*program
}

// newUnit returns the evaluation state for one run of a compiled unit.
func newUnit(an *bodyAnalysis) unit {
	u := unit{an: an, env: an.newEnv()}
	if an.conts > 0 {
		u.conts = make([]resume, an.conts)
	}
	return u
}

// newEvaluator returns an evaluator for one run of the analyzed body
// under the given options.
func newEvaluator(ctx context.Context, an *bodyAnalysis, opts Options, stats *Stats) *evaluator {
	return &evaluator{unit: newUnit(an), useIndex: opts.UseIndex, noSchedule: opts.NoSchedule, stats: stats, ctx: ctx}
}

// checkCtx polls the evaluation context once every 1024 operations.
// Called from the enumeration hot paths; the amortization keeps the
// overhead of context support below the benchmark noise floor.
func (ev *evaluator) checkCtx() error {
	if ev.ctx == nil {
		return nil
	}
	ev.ops++
	if ev.ops&1023 != 0 {
		return nil
	}
	return ev.ctx.Err()
}

// UnsafeError reports a query that cannot be evaluated safely: an
// inequality or arithmetic over a variable that no other conjunct binds.
type UnsafeError struct {
	Var  string
	Expr ast.Expr
}

func (e *UnsafeError) Error() string {
	return fmt.Sprintf("unsafe expression %q: variable %s is not bound by any other conjunct", e.Expr.String(), e.Var)
}

// satisfy enumerates the extensions of ev.env under which o satisfies e,
// invoking k once per extension. Bindings are undone as enumeration
// backtracks; after satisfy returns, the env is as it was (unless k
// retained a snapshot).
func (ev *evaluator) satisfy(e ast.Expr, o object.Object, k cont) error {
	switch x := e.(type) {
	case ast.Epsilon:
		return k()

	case *ast.Not:
		sat, err := ev.exists(x.X, o)
		if err != nil {
			return err
		}
		if !sat {
			return k()
		}
		return nil

	case *ast.Atomic:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfyAtomic(x, o, k)

	case *ast.Constraint:
		return ev.satisfyConstraint(x, k)

	case *ast.AttrExpr:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfyAttr(x, o, k)

	case *ast.TupleExpr:
		return ev.satisfyTuple(x, o, k)

	case *ast.SetExpr:
		if x.Sign != ast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfySet(x, o, k)

	default:
		return fmt.Errorf("core: unknown expression type %T", e)
	}
}

// exists reports whether any extension of the current substitution
// satisfies e on o; all extensions are undone (negation as failure).
func (ev *evaluator) exists(e ast.Expr, o object.Object) (bool, error) {
	mark := ev.env.Mark()
	err := ev.satisfy(e, o, func() error { return errStop })
	ev.env.Undo(mark)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errStop):
		return true, nil
	default:
		return false, err
	}
}

// satisfyAtomic implements §4.2: a ground comparison tests directly; `=X`
// with X unbound binds X to the object — including aggregate objects
// (§4.1's extension). Null satisfies no atomic expression.
func (ev *evaluator) satisfyAtomic(x *ast.Atomic, o object.Object, k cont) error {
	if v, ok := singleUnboundVar(x.Term, ev.env); ok {
		if x.Op != ast.OpEQ {
			return &UnsafeError{Var: v.Name, Expr: unlift(x, ev.env)}
		}
		if _, isNull := o.(object.Null); isNull {
			return nil // null satisfies nothing, not even =X
		}
		return ev.bindAnd(v.Slot, o, k)
	}
	val, err := evalTerm(x.Term, ev.env)
	if err != nil {
		var ub *unboundError
		if errors.As(err, &ub) {
			return &UnsafeError{Var: ub.Var, Expr: unlift(x, ev.env)}
		}
		return err
	}
	if compare(x.Op, o, val) {
		return k()
	}
	return nil
}

// satisfyConstraint implements the Datalog-style side condition
// (footnote 7). `=` with one unbound side binds it; everything else
// requires ground terms.
func (ev *evaluator) satisfyConstraint(x *ast.Constraint, k cont) error {
	if x.Op == ast.OpEQ {
		// The binding forms `X = term` / `term = X`, decided before
		// evaluating X so the common case builds no unbound-variable error.
		if v, ok := singleUnboundVar(x.L, ev.env); ok {
			if rv, err := evalTerm(x.R, ev.env); err == nil {
				return ev.bindAnd(v.Slot, rv, k)
			}
		} else if v, ok := singleUnboundVar(x.R, ev.env); ok {
			if lv, err := evalTerm(x.L, ev.env); err == nil {
				return ev.bindAnd(v.Slot, lv, k)
			}
		}
	}
	lv, lerr := evalTerm(x.L, ev.env)
	rv, rerr := evalTerm(x.R, ev.env)
	// A hard evaluation error (e.g. arithmetic on a non-number) outranks
	// unbound-variable reporting on the other side.
	if lerr != nil && !isUnbound(lerr) {
		return lerr
	}
	if rerr != nil && !isUnbound(rerr) {
		return rerr
	}
	switch {
	case lerr == nil && rerr == nil:
		if compare(x.Op, lv, rv) {
			return k()
		}
		return nil
	case lerr != nil:
		return unsafeFrom(lerr, unlift(x, ev.env))
	default:
		return unsafeFrom(rerr, unlift(x, ev.env))
	}
}

// bindAnd runs k under the substitution extended with slot ↦ val.
func (ev *evaluator) bindAnd(slot int32, val object.Object, k cont) error {
	mark := ev.env.Mark()
	ev.env.Bind(slot, val)
	err := k()
	ev.env.Undo(mark)
	return err
}

func unsafeFrom(err error, e ast.Expr) error {
	var ub *unboundError
	if errors.As(err, &ub) {
		return &UnsafeError{Var: ub.Var, Expr: e}
	}
	return err
}

// isUnbound reports whether err is (only) an unbound-variable condition.
func isUnbound(err error) bool {
	var ub *unboundError
	return errors.As(err, &ub)
}

// satisfyAttr implements tuple-expression conjuncts, including
// higher-order quantification (§4.3): an unbound variable in attribute
// position enumerates the tuple's attribute names.
func (ev *evaluator) satisfyAttr(x *ast.AttrExpr, o object.Object, k cont) error {
	tup, ok := o.(*object.Tuple)
	if !ok {
		return nil // attribute expressions are satisfied only by tuples
	}
	switch name := x.Name.(type) {
	case ast.Const:
		s, ok := name.Value.(object.Str)
		if !ok {
			return nil
		}
		val, ok := tup.Lookup(&x.Site, string(s))
		if !ok {
			return nil
		}
		return ev.satisfy(x.Expr, val, k)
	case ast.Var:
		if bound, ok := ev.env.Lookup(name.Slot); ok {
			s, ok := bound.(object.Str)
			if !ok {
				return nil // attribute names are strings
			}
			val, ok := tup.Get(string(s))
			if !ok {
				return nil
			}
			return ev.satisfy(x.Expr, val, k)
		}
		// Higher-order enumeration over the attribute names, walking
		// names and values side by side.
		ev.stats.AttrEnums++
		names, vals := tup.Names(), tup.Values()
		for i, val := range vals {
			mark := ev.env.Mark()
			ev.env.Bind(name.Slot, names[i])
			err := ev.satisfy(x.Expr, val, k)
			ev.env.Undo(mark)
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: attribute name must be a constant or variable, got %T", x.Name)
	}
}

// satisfyTuple evaluates a conjunct list under one shared substitution,
// in the order its program fixed (sched.go).
func (ev *evaluator) satisfyTuple(x *ast.TupleExpr, o object.Object, k cont) error {
	if len(x.Conjuncts) == 0 {
		return k()
	}
	if p := ev.program(x); p != nil {
		return ev.run(p, 0, o, k)
	}
	if err := ev.checkCtx(); err != nil {
		return err
	}
	return ev.satisfy(x.Conjuncts[0], o, k)
}

// satisfyProbed runs one measured conjunct: rows are counted at each
// continuation entry, and both wall time and stats deltas attribute to
// the conjunct only what its own enumeration consumed — time and work
// inside the downstream continuation (which evaluates the remaining
// conjuncts, themselves possibly probed) are subtracted out.
func (ev *evaluator) satisfyProbed(p *conjunctProbe, c ast.Expr, o object.Object, next cont) error {
	if p.enter == nil {
		p.ev, p.enter = ev, p.row
	}
	p.next, p.childStats, p.childTime = next, Stats{}, 0
	before := *ev.stats
	start := time.Now()
	err := ev.satisfy(c, o, p.enter)
	p.selfTime += time.Since(start) - p.childTime
	d := statsDelta(before, *ev.stats)
	p.scanned += d.ElementsScanned - p.childStats.ElementsScanned
	p.indexProbes += d.IndexProbes - p.childStats.IndexProbes
	return err
}

// consumedVars returns the variables a conjunct can only test, not
// produce: operands of non-equality comparisons, arithmetic inputs, and
// every variable under a negation.
func consumedVars(e ast.Expr) []string {
	var out []string
	seen := map[string]bool{}
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	var rec func(e ast.Expr, underNot bool)
	rec = func(e ast.Expr, underNot bool) {
		switch x := e.(type) {
		case *ast.Not:
			rec(x.X, true)
		case *ast.Atomic:
			if underNot || x.Op != ast.OpEQ {
				add(termVarNames(x.Term))
			} else if _, isArith := x.Term.(ast.Arith); isArith {
				add(termVarNames(x.Term))
			}
		case *ast.Constraint:
			lv, lIsVar := x.L.(ast.Var)
			rv, rIsVar := x.R.(ast.Var)
			if underNot || x.Op != ast.OpEQ {
				add(termVarNames(x.L))
				add(termVarNames(x.R))
				return
			}
			// `X = term`: the bare-var side is a producer when the other
			// side is ground-able; both-bare `X = Y` consumes neither
			// (runtime binds whichever is free once one is bound).
			if !lIsVar {
				add(termVarNames(x.L))
			}
			if !rIsVar {
				add(termVarNames(x.R))
			}
			_ = lv
			_ = rv
		case *ast.AttrExpr:
			if underNot {
				add(termVarNames(x.Name))
			}
			rec(x.Expr, underNot)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				rec(c, underNot)
			}
		case *ast.SetExpr:
			rec(x.X, underNot)
		}
	}
	rec(e, false)
	return out
}

// satisfySet implements set expressions: ∃ element satisfying the inner
// expression. When the inner expression pins an attribute to a ground
// value (`.attr = const`), a lazily built per-set attribute index narrows
// the candidate elements; otherwise the set is scanned.
func (ev *evaluator) satisfySet(x *ast.SetExpr, o object.Object, k cont) error {
	set, ok := o.(*object.Set)
	if !ok {
		return nil
	}
	// Every element enters x.X under the same substitution, so a conjunct
	// list's program is found once per enumeration, not once per element.
	var prog *program
	if te, ok := x.X.(*ast.TupleExpr); ok && len(te.Conjuncts) > 0 {
		prog = ev.program(te)
	}
	if p := ev.part; p != nil && !p.used && p.set == set {
		// Partitioned scan: this worker's first encounter of the target
		// set enumerates only its chunk. scanTarget guaranteed the
		// sequential evaluator would have full-scanned here, and the
		// first set this evaluation reaches is the target by
		// construction, so marking the partition consumed keeps every
		// later enumeration of the same set (self-joins, negations)
		// identical to the sequential one.
		p.used = true
		for _, elem := range p.elems {
			ev.stats.ElementsScanned++
			if err := ev.checkCtx(); err != nil {
				return err
			}
			if err := ev.element(prog, x.X, elem, k); err != nil {
				return err
			}
		}
		return nil
	}
	if ev.useIndex {
		if cands, ok := ev.indexCandidates(x, set); ok {
			ev.stats.IndexProbes++
			ev.stats.IndexCandidates += uint64(len(cands))
			for _, elem := range cands {
				if err := ev.checkCtx(); err != nil {
					return err
				}
				if err := ev.element(prog, x.X, elem, k); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var failure error
	set.Each(func(elem object.Object) bool {
		ev.stats.ElementsScanned++
		if err := ev.checkCtx(); err != nil {
			failure = err
			return false
		}
		if err := ev.element(prog, x.X, elem, k); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}

// element satisfies a set expression's inner expression e on one of its
// elements: through e's program when e is a conjunct list.
func (ev *evaluator) element(prog *program, e ast.Expr, elem object.Object, k cont) error {
	if prog != nil {
		return ev.run(prog, 0, elem, k)
	}
	return ev.satisfy(e, elem, k)
}

// indexCandidates answers a set expression from the set's attribute
// index when the index rule (indexKeys) applies, pinning every key it
// found.
func (ev *evaluator) indexCandidates(x *ast.SetExpr, set *object.Set) ([]object.Object, bool) {
	eqs := indexKeys(ev.eqs[:0], x, set, ev.env)
	if len(eqs) == 0 {
		return nil, false
	}
	cands, built := set.Probe(eqs)
	if built {
		ev.stats.IndexBuilds++
	}
	return cands, true
}

// indexMinLen is the smallest set an attribute index answers: below it a
// scan costs less than building and probing the index.
const indexMinLen = 16

// indexKeys is the one index rule, which evaluation (indexCandidates),
// EXPLAIN (accessPath) and the parallel scan (scanTarget) all call: a set
// expression over a set of at least indexMinLen elements is answered by
// an index probe when its inner conjunct list has a ground equality
// `.attr = term` — a constant attribute name, a term ground under env. It
// appends each such key to dst, the first of any repeated attribute, and
// returns dst; no key means scan.
func indexKeys(dst []object.AttrEq, x *ast.SetExpr, set *object.Set, env *Env) []object.AttrEq {
	te, ok := x.X.(*ast.TupleExpr)
	if !ok || set.Len() < indexMinLen {
		return dst
	}
	for _, c := range te.Conjuncts {
		attr, val, ok := groundEqConjunct(c, env)
		if ok && !slices.ContainsFunc(dst, func(eq object.AttrEq) bool { return eq.Attr == attr }) {
			dst = append(dst, object.AttrEq{Attr: attr, Val: val})
		}
	}
	return dst
}

// groundEqConjunct recognizes `.attr = groundterm` conjuncts — ground
// under env, that is.
func groundEqConjunct(c ast.Expr, env *Env) (string, object.Object, bool) {
	a, ok := c.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return "", nil, false
	}
	name, ok := ast.ConstName(a.Name)
	if !ok {
		return "", nil, false
	}
	at, ok := a.Expr.(*ast.Atomic)
	if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone || !groundTerm(at.Term, env) {
		return "", nil, false
	}
	val, err := evalTerm(at.Term, env)
	if err != nil {
		return "", nil, false
	}
	if !val.Kind().IsAtomic() {
		return "", nil, false
	}
	return name, val, true
}

// groundTerm reports whether every variable of t is bound under env —
// the test evalTerm would fail, made without building its error.
func groundTerm(t ast.Term, env *Env) bool {
	switch x := t.(type) {
	case ast.Var:
		return env.Bound(x.Slot)
	case ast.Arith:
		return groundTerm(x.L, env) && groundTerm(x.R, env)
	default:
		return true
	}
}
