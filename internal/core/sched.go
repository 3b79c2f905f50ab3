package core

import (
	"idl/internal/ast"
	"idl/internal/object"
)

// Step programs (DESIGN.md §19). The order in which a conjunct list's
// conjuncts run is a schedule the engine picks for safety and cost
// (pickConjunct). Which conjuncts are runnable depends only on which
// slots are bound, and what satisfying a conjunct binds depends only on
// the conjunct — every variable outside a negation, or the continuation
// never runs — so a unit entered with a given set of bound slots (its
// entry signature) runs every one of its lists in one order, fixed before
// any element is read. A unit's schedule is therefore compiled where its
// ranks are fixed — compilePlan for a query, Engine.ranked for a rule
// body, execBody for an update request or a program clause — into one
// step program per conjunct list, and shared read-only by every
// evaluation of that signature: sequential, partitioned, measured or
// EXPLAINed. A step is single-valued when it can extend the substitution
// at most one way — a constant attribute bound to an unbound variable,
// compared with a ground term, or tested for existence — and runs inline;
// every other step (attribute or relation variable enumeration, a nested
// list or set, a negation, a constraint) recurses through satisfy.

// stepKind says how a step runs.
type stepKind uint8

const (
	stepRun  stepKind = iota // multi-valued: satisfy the conjunct, resuming after it
	stepBind                 // `.a = X`, X unbound: bind X to a's value
	stepTest                 // `.a op t`, t ground: compare a's value with t
	stepHas                  // `.a`: a exists
)

// step is one conjunct of a program, in run order.
type step struct {
	kind stepKind
	src  int      // the conjunct's position in its list
	c    ast.Expr // the conjunct
	// cont is the evaluator's resume slot for the steps after this one,
	// in a unit's shared program: numbered for every step whose
	// continuation can be asked for (a multi-valued step but the last,
	// and every step but the last of the body's, which a measured read
	// probes); -1 elsewhere.
	cont int
	// Single-valued steps: the constant attribute, its name, and for
	// stepBind and stepTest its atomic expression.
	attr *ast.AttrExpr
	name string
	at   *ast.Atomic
}

// program is one conjunct list's schedule under its unit's entry
// signature. A running program keeps its continuation state in resume
// slots: the evaluator's (step.cont) for a unit's shared programs; its
// own, by step, for a program built at entry, which also records the
// signature it was built for (sig).
type program struct {
	steps []step
	own   []resume
	sig   []bool
}

// resume is the continuation after one step of a running program: the
// steps after it on the same object, then the list's continuation. A
// slot is reused for every entry of its list, which is sound because a
// resolved AST is a tree: while a list is active, evaluation is inside
// one of its conjuncts or downstream of it, never back at the same list.
type resume struct {
	ev   *evaluator
	p    *program
	i    int
	o    object.Object
	k    cont
	next cont // run, bound once
}

func (r *resume) run() error { return r.ev.run(r.p, r.i, r.o, r.k) }

// program returns the program x runs under the evaluator's unit: the
// unit's own, or — for a list its schedule does not cover (the
// updater's ad-hoc lists of a conjunct list's query parts, and lists
// inside update conjuncts) — one built for the substitution as it
// stands, which is every entry's signature until the caller returns. A
// covered-by-ID list keeps what it was built for (unit.adhoc) and
// rebuilds only when it is entered under another signature. An uncovered
// list of one conjunct has nothing to schedule: nil, and the caller
// satisfies the conjunct itself.
func (ev *evaluator) program(x *ast.TupleExpr) *program {
	progs := ev.an.progs
	if int(x.ID) < len(progs) && progs[x.ID] != nil {
		return progs[x.ID]
	}
	if len(x.Conjuncts) == 1 {
		return nil
	}
	if x.ID != 0 && ev.adhoc != nil {
		if p := ev.adhoc[x.ID]; p != nil && p.fits(ev.env) {
			return p
		}
	}
	s := scheduler{sc: ev.an.sc, bound: make([]bool, len(ev.env.vals)), noSchedule: ev.noSchedule}
	for slot, v := range ev.env.vals {
		s.bound[slot] = v != nil
	}
	sig := append([]bool(nil), s.bound...)
	p := s.list(x, nil, false)
	p.own, p.sig = make([]resume, len(p.steps)-1), sig
	if x.ID != 0 {
		if ev.adhoc == nil {
			ev.adhoc = make([]*program, len(ev.an.sc.tuples))
		}
		ev.adhoc[x.ID] = p
	}
	return p
}

// fits reports whether env binds exactly the slots an entry-built
// program was built for.
func (p *program) fits(env *Env) bool {
	for slot, bound := range p.sig {
		if bound != (env.vals[slot] != nil) {
			return false
		}
	}
	return true
}

// run runs p's steps from i on o, then k: the single-valued steps inline
// under one mark, recursing at the first multi-valued one with the rest
// of the program as its continuation.
func (ev *evaluator) run(p *program, i int, o object.Object, k cont) error {
	if ev.analyze != nil && p == ev.analyze.top {
		return ev.runProbed(p, i, o, k)
	}
	if err := ev.checkCtx(); err != nil {
		return err
	}
	steps := p.steps
	mark := ev.env.Mark()
	tup, _ := o.(*object.Tuple) // single-valued steps hold only on tuples
	for ; i < len(steps) && steps[i].kind != stepRun; i++ {
		if ok, err := ev.single(&steps[i], tup); !ok {
			ev.env.Undo(mark)
			return err
		}
	}
	var err error
	if i == len(steps) {
		err = k()
	} else {
		err = ev.satisfy(steps[i].c, o, ev.after(p, i, o, k))
	}
	ev.env.Undo(mark)
	return err
}

// single runs one single-valued step on tup (nil when the object is not
// a tuple), reporting whether it held; a held stepBind leaves its binding
// on the trail.
func (ev *evaluator) single(s *step, tup *object.Tuple) (bool, error) {
	if tup == nil {
		return false, nil
	}
	val, ok := tup.Lookup(&s.attr.Site, s.name)
	if !ok {
		return false, nil
	}
	switch s.kind {
	case stepBind:
		if _, isNull := val.(object.Null); isNull {
			return false, nil // null satisfies nothing, not even =X
		}
		ev.env.Bind(s.at.Term.(ast.Var).Slot, val)
		return true, nil
	case stepTest:
		want, err := evalTerm(s.at.Term, ev.env)
		if err != nil {
			return false, err // ground, so a hard error such as arithmetic on a string
		}
		return compare(s.at.Op, val, want), nil
	default:
		return true, nil
	}
}

// after returns the continuation of step i of p on o: the steps after
// it, then k — k itself after the last step.
func (ev *evaluator) after(p *program, i int, o object.Object, k cont) cont {
	if i == len(p.steps)-1 {
		return k
	}
	var r *resume
	if p.own != nil {
		r = &p.own[i]
	} else {
		r = &ev.conts[p.steps[i].cont]
	}
	if r.next == nil {
		r.ev, r.p, r.i = ev, p, i+1
		r.next = r.run
	}
	r.o, r.k = o, k
	return r.next
}

// runProbed runs step i of the measured program — the body's, under
// EXPLAIN ANALYZE or a tracer — through its probe: every step recurses,
// so each one's rows, work and self time are its own.
func (ev *evaluator) runProbed(p *program, i int, o object.Object, k cont) error {
	if err := ev.checkCtx(); err != nil {
		return err
	}
	return ev.satisfyProbed(&ev.analyze.probes[i], p.steps[i].c, o, ev.after(p, i, o, k))
}

// scheduler compiles step programs by simulating boundness: bound holds
// the slots bound at the point being compiled. progs, when non-nil,
// collects the program of every list reached, by tuple ID; a nil progs
// compiles only the list asked for.
type scheduler struct {
	sc         *scope
	bound      []bool
	noSchedule bool
	progs      []*program
	conts      int
}

// newScheduler starts a schedule of an's lists for an entry that binds
// the literal slots and every slot entry marks (nil: none).
func newScheduler(an *bodyAnalysis, entry []bool, noSchedule bool) *scheduler {
	s := &scheduler{sc: an.sc, bound: make([]bool, an.sc.size()), noSchedule: noSchedule, progs: make([]*program, len(an.sc.tuples))}
	copy(s.bound, entry)
	for _, slot := range an.sc.lits {
		s.bound[slot] = true
	}
	return s
}

// compiled returns a copy of an carrying ranks for its top-level
// conjuncts and the programs of its lists for the given entry, the body
// running as one list — a query or a rule body.
func (an *bodyAnalysis) compiled(ranks []float64, entry []bool, noSchedule bool) *bodyAnalysis {
	s := newScheduler(an, entry, noSchedule)
	if len(an.body.Conjuncts) > 0 {
		s.list(an.body, ranks, true)
	}
	out := *an
	out.ranks, out.progs, out.conts = ranks, s.progs, s.conts
	return &out
}

// request returns an carrying the programs of its lists for an update
// request's loop (execBody), entered with the seed row's slots bound: its
// top-level conjuncts run one at a time in source order, and only a query
// conjunct — not an update, not a program call (isCall) — binds anything
// for those after it. Lists inside update conjuncts get no program here:
// the updater walks them its own way, and they are scheduled at entry. A
// body with no query conjunct has nothing to compile and comes back as it
// is.
func (an *bodyAnalysis) request(seed []object.Object, isCall func(ast.Expr) bool, noSchedule bool) *bodyAnalysis {
	var s *scheduler
	for _, c := range an.body.Conjuncts {
		if ast.HasUpdate(c) || isCall(c) {
			continue
		}
		if s == nil {
			s = newScheduler(an, nil, noSchedule)
			for slot, v := range seed {
				s.bound[slot] = v != nil
			}
		}
		s.expr(c)
	}
	if s == nil {
		return an
	}
	out := *an
	out.progs, out.conts = s.progs, s.conts
	return &out
}

// list compiles x under the current boundness, leaving bound as it is
// after the whole list ran. ranks order the body's conjuncts; a nested
// list runs in source order within the safety constraints. body marks
// the body's list, whose every step a measured read resumes.
func (s *scheduler) list(x *ast.TupleExpr, ranks []float64, body bool) *program {
	n := len(x.Conjuncts)
	p := &program{steps: make([]step, 0, n)}
	var consumed [][]int32
	if n > 1 {
		if x.ID != 0 {
			consumed = s.sc.tuples[x.ID].consumed
		} else {
			consumed = s.sc.consumedSlots(x.Conjuncts)
		}
	}
	var buf [16]bool
	used := append(buf[:0], make([]bool, n)...)
	for range n {
		i := 0
		if n > 1 {
			i = pickConjunct(used, consumed, ranks, s.bound, s.noSchedule)
		}
		used[i] = true
		c := x.Conjuncts[i]
		p.steps = append(p.steps, s.classify(c, i))
		s.expr(c)
	}
	for i := range p.steps[:n-1] {
		if body || p.steps[i].kind == stepRun {
			p.steps[i].cont = s.conts
			s.conts++
		}
	}
	if s.progs != nil && x.ID != 0 {
		s.progs[x.ID] = p
	}
	return p
}

// classify makes conjunct c, at source position src, a step under the
// current boundness.
func (s *scheduler) classify(c ast.Expr, src int) step {
	st := step{src: src, c: c, cont: -1}
	a, ok := c.(*ast.AttrExpr)
	if !ok || a.Sign != ast.SignNone {
		return st
	}
	name, ok := ast.ConstName(a.Name)
	if !ok {
		return st
	}
	switch x := a.Expr.(type) {
	case ast.Epsilon:
		st.kind = stepHas
	case *ast.Atomic:
		if x.Sign != ast.SignNone {
			return st
		}
		if v, isVar := x.Term.(ast.Var); isVar && !s.bound[v.Slot] {
			if x.Op != ast.OpEQ {
				return st // unsafe: satisfyAtomic reports it
			}
			st.kind = stepBind
		} else if s.ground(x.Term) {
			st.kind = stepTest
		} else {
			return st // unsafe: satisfyAtomic reports it
		}
		st.at = x
	default:
		return st
	}
	st.attr, st.name = a, name
	return st
}

// expr compiles the lists inside e, then marks what satisfying e binds:
// every variable outside a negation.
func (s *scheduler) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Not:
		saved := append([]bool(nil), s.bound...)
		s.expr(x.X)
		copy(s.bound, saved)
	case *ast.Atomic:
		s.term(x.Term)
	case *ast.Constraint:
		s.term(x.L)
		s.term(x.R)
	case *ast.AttrExpr:
		if v, ok := x.Name.(ast.Var); ok {
			s.bound[v.Slot] = true
		}
		s.expr(x.Expr)
	case *ast.SetExpr:
		s.expr(x.X)
	case *ast.TupleExpr:
		if s.progs == nil {
			for _, c := range x.Conjuncts {
				s.expr(c)
			}
			return
		}
		if len(x.Conjuncts) > 0 {
			s.list(x, nil, false)
		}
	}
}

func (s *scheduler) term(t ast.Term) {
	switch x := t.(type) {
	case ast.Var:
		s.bound[x.Slot] = true
	case ast.Arith:
		s.term(x.L)
		s.term(x.R)
	}
}

// ground reports whether every variable of t is bound at this point.
func (s *scheduler) ground(t ast.Term) bool {
	switch x := t.(type) {
	case ast.Var:
		return s.bound[x.Slot]
	case ast.Arith:
		return s.ground(x.L) && s.ground(x.R)
	default:
		return true
	}
}

// pickConjunct is the scheduler's one rule, run only where programs are
// compiled: among the conjuncts not yet used, noSchedule takes the first
// in source order; otherwise a conjunct is runnable once every slot it
// consumes is bound, and the runnable one of least rank runs (source
// order breaking ties; plain source order without ranks) — ordering
// within the safety constraints, never instead of them. When none is
// runnable the first unused one runs anyway: negation evaluates with
// local bindings (the paper's literal ∃σ reading), and an inequality
// raises UnsafeError when it runs. At least one conjunct must be unused.
func pickConjunct(used []bool, consumed [][]int32, ranks []float64, bound []bool, noSchedule bool) int {
	pick, first := -1, -1
	for idx, done := range used {
		if done {
			continue
		}
		if first < 0 {
			first = idx
			if noSchedule {
				return idx
			}
		}
		runnable := true
		for _, slot := range consumed[idx] {
			if !bound[slot] {
				runnable = false
				break
			}
		}
		if !runnable {
			continue
		}
		if ranks == nil {
			return idx
		}
		if pick < 0 || ranks[idx] < ranks[pick] {
			pick = idx
		}
	}
	if pick < 0 {
		return first
	}
	return pick
}
