package core

import (
	"context"
	"fmt"
	"slices"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// A compiledRule is a validated view rule with the metadata stratification
// needs: its head pattern (db, relation term) and the (db, rel) patterns
// its body references, each flagged if it occurs under negation.
type compiledRule struct {
	src     *ast.Rule
	headDB  string   // constant database name (head level 1)
	headRel ast.Term // constant or variable (head level 2); nil for db-level heads
	headHO  bool     // head contains a higher-order variable (§6)
	refs    []patternRef
	stratum int
	// recursive marks a rule whose stratum is a dependency cycle (or
	// reads its own head): its stratum iterates to a fixpoint.
	recursive bool
	// headVars are the head's variables in first-occurrence order; a body
	// substitution reaches the head as a row holding them positionally.
	// head is the head compiled against those positions (head.go).
	headVars []string
	head     *headNode
	// body is the body slot-resolved once at registration, its output row
	// the head variables; each materialization pairs it with fresh cost
	// ranks (Engine.ranked).
	body *bodyAnalysis
	// reads are every universe read of the body and target the head's
	// `.db.rel+(…)` form (nil for other heads), for view maintenance by
	// delta (maintain.go).
	reads  []ruleRead
	target *headTarget
}

// ruleRead is one (database, relation) pattern a rule body reads;
// variable or nil components match anything. A top-level conjunct
// `.db.rel(…)` with a constant database is a delta read: body is the
// rule body with that conjunct reading the delta database instead,
// which a delta refresh binds to the changed elements. Every other read
// (under negation, of a whole database or relation object, through a
// variable database) has a nil body.
type ruleRead struct {
	db, rel ast.Term
	dbName  string
	body    *bodyAnalysis
}

// patternRef is a (database, relation) reference pattern from a rule
// body. Variable components match anything.
type patternRef struct {
	db      ast.Term
	rel     ast.Term // nil when the reference stops at the database level
	negated bool
}

// NotStratifiedError reports a rule set with negation in a dependency
// cycle; the paper requires view definitions to be stratified (§6).
type NotStratifiedError struct {
	Rules []string
}

func (e *NotStratifiedError) Error() string {
	return fmt.Sprintf("rule set is not stratified: negation inside a recursive component involving %d rule(s): %v", len(e.Rules), e.Rules)
}

// compileRule validates a rule per §6: the head is a simple tuple
// expression on the universe whose variables all occur in the body, with
// a constant database name.
func compileRule(r *ast.Rule) (*compiledRule, error) {
	if r.Head == nil || len(r.Head.Conjuncts) != 1 {
		return nil, fmt.Errorf("core: rule head must be a single path expression")
	}
	if !headSimpleEnough(r.Head) {
		return nil, fmt.Errorf("core: rule head %q must be a simple expression (only '=', no negation, no signs beyond the insertion '+')", r.Head.String())
	}
	headAttr, ok := r.Head.Conjuncts[0].(*ast.AttrExpr)
	if !ok {
		return nil, fmt.Errorf("core: rule head must start with a database attribute")
	}
	dbConst, ok := headAttr.Name.(ast.Const)
	if !ok {
		return nil, fmt.Errorf("core: rule head database name must be a constant")
	}
	dbStr, ok := dbConst.Value.(object.Str)
	if !ok {
		return nil, fmt.Errorf("core: rule head database name must be a string")
	}
	bodyVars := map[string]bool{}
	for _, v := range ast.Vars(r.Body) {
		bodyVars[v] = true
	}
	headVars := ast.Vars(r.Head)
	slots := make(map[string]int, len(headVars))
	for i, v := range headVars {
		if !bodyVars[v] {
			return nil, fmt.Errorf("core: head variable %s does not occur in the body", v)
		}
		slots[v] = i
	}
	cr := &compiledRule{
		src:      r,
		headDB:   string(dbStr),
		headHO:   len(ast.HigherOrderVars(r.Head)) > 0,
		refs:     collectRefs(r.Body),
		headVars: headVars,
		head:     compileHead(r.Head, slots),
		body:     resolveUnit(headVars, r.Body),
		reads:    compileReads(r.Body, headVars),
	}
	cr.target = cr.head.relTarget()
	if te, ok := headAttr.Expr.(*ast.TupleExpr); ok && len(te.Conjuncts) == 1 {
		if rel, ok := te.Conjuncts[0].(*ast.AttrExpr); ok {
			cr.headRel = rel.Name
		}
	}
	return cr, nil
}

// compileReads lists the universe reads of a rule body.
func compileReads(body *ast.TupleExpr, headVars []string) []ruleRead {
	var reads []ruleRead
	for i, c := range body.Conjuncts {
		if db, rel, ok := deltaShape(c); ok {
			conjuncts := append([]ast.Expr(nil), body.Conjuncts...)
			conjuncts[i] = &ast.AttrExpr{Name: ast.Const{Value: object.Str(deltaDB)}, Expr: c.(*ast.AttrExpr).Expr}
			reads = append(reads, ruleRead{
				db: c.(*ast.AttrExpr).Name, rel: rel, dbName: db,
				body: resolveUnit(headVars, &ast.TupleExpr{Conjuncts: conjuncts}),
			})
			continue
		}
		reads = append(reads, otherReads(c)...)
	}
	return reads
}

// deltaShape recognizes `.db.rel(…)` — a constant database, one relation
// and a set expression over its elements — whose rows are a union over
// those elements, so a delta of the relation stands in for it.
func deltaShape(c ast.Expr) (db string, rel ast.Term, ok bool) {
	a, isAttr := c.(*ast.AttrExpr)
	if !isAttr || a.Sign != ast.SignNone {
		return "", nil, false
	}
	if db, ok = constStrName(a.Name); !ok {
		return "", nil, false
	}
	te, isTE := a.Expr.(*ast.TupleExpr)
	if !isTE || len(te.Conjuncts) != 1 {
		return "", nil, false
	}
	ra, isAttr := te.Conjuncts[0].(*ast.AttrExpr)
	if !isAttr || ra.Sign != ast.SignNone {
		return "", nil, false
	}
	if se, isSet := ra.Expr.(*ast.SetExpr); !isSet || se.Sign != ast.SignNone {
		return "", nil, false
	}
	return db, ra.Name, true
}

// otherReads over-approximates what a conjunct reads: each relation a
// database-level conjunct list names, the whole database otherwise, and
// the whole universe for a conjunct binding the universe object itself.
func otherReads(e ast.Expr) []ruleRead {
	switch x := e.(type) {
	case *ast.Not:
		return otherReads(x.X)
	case *ast.TupleExpr:
		var out []ruleRead
		for _, c := range x.Conjuncts {
			out = append(out, otherReads(c)...)
		}
		return out
	case *ast.AttrExpr:
		var out []ruleRead
		if te, ok := x.Expr.(*ast.TupleExpr); ok {
			for _, c := range te.Conjuncts {
				ra, isAttr := c.(*ast.AttrExpr)
				if !isAttr {
					out = nil
					break
				}
				out = append(out, ruleRead{db: x.Name, rel: ra.Name})
			}
		}
		if len(out) == 0 {
			return []ruleRead{{db: x.Name}}
		}
		return out
	case *ast.Atomic, *ast.VarExpr:
		return []ruleRead{{}}
	default:
		return nil
	}
}

// headSimpleEnough relaxation: the conventional head form `.db.rel+(...)`
// carries a single plus sign on the insertion set expression. IsSimple
// rejects signs, so validate specially: strip one level of set-expression
// plus when checking.
func headSimpleEnough(te *ast.TupleExpr) bool {
	ok := true
	var rec func(e ast.Expr, allowPlus bool)
	rec = func(e ast.Expr, allowPlus bool) {
		switch x := e.(type) {
		case *ast.Not:
			ok = false
		case *ast.Constraint:
			ok = false
		case *ast.Atomic:
			if x.Op != ast.OpEQ || x.Sign != ast.SignNone {
				ok = false
			}
		case *ast.AttrExpr:
			if x.Sign != ast.SignNone {
				ok = false
			}
			rec(x.Expr, allowPlus)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				rec(c, allowPlus)
			}
		case *ast.SetExpr:
			if x.Sign == ast.SignMinus {
				ok = false
			}
			rec(x.X, allowPlus)
		}
	}
	rec(te, true)
	return ok
}

// collectRefs extracts the (db, rel) patterns a body references, flagging
// references under negation.
func collectRefs(body *ast.TupleExpr) []patternRef {
	var refs []patternRef
	var walkConjunct func(e ast.Expr, negated bool)
	walkConjunct = func(e ast.Expr, negated bool) {
		switch x := e.(type) {
		case *ast.Not:
			walkConjunct(x.X, true)
		case *ast.AttrExpr:
			ref := patternRef{db: x.Name, negated: negated}
			// Second level: the relation name, when the path goes deeper.
			if te, ok := x.Expr.(*ast.TupleExpr); ok {
				for _, c := range te.Conjuncts {
					if rel, ok := c.(*ast.AttrExpr); ok {
						refs = append(refs, patternRef{db: x.Name, rel: rel.Name, negated: negated || relNegated(c)})
					}
				}
				return
			}
			refs = append(refs, ref)
		case *ast.TupleExpr:
			for _, c := range x.Conjuncts {
				walkConjunct(c, negated)
			}
		}
	}
	for _, c := range body.Conjuncts {
		walkConjunct(c, false)
	}
	return refs
}

// relNegated reports whether the relation-level expression itself is
// negated (`.euter.r~(...)`).
func relNegated(c ast.Expr) bool {
	a, ok := c.(*ast.AttrExpr)
	if !ok {
		return false
	}
	_, isNot := a.Expr.(*ast.Not)
	return isNot
}

// termsUnify reports whether two name terms can refer to the same name:
// variables match anything; constants must be equal strings.
func termsUnify(a, b ast.Term) bool {
	if a == nil || b == nil {
		return true // absent level matches anything (conservative)
	}
	ca, aIsConst := a.(ast.Const)
	cb, bIsConst := b.(ast.Const)
	if aIsConst && bIsConst {
		return ca.Value.Equal(cb.Value)
	}
	return true // at least one variable
}

// refMatchesHead reports whether a body reference may read a rule's head
// relation.
func refMatchesHead(ref patternRef, head *compiledRule) bool {
	if !termsUnify(ref.db, ast.Const{Value: object.Str(head.headDB)}) {
		return false
	}
	return termsUnify(ref.rel, head.headRel)
}

// stratify assigns strata using the condensation of the rule dependency
// graph: an edge i→j when rule j's body reads rule i's head. A negative
// edge inside a strongly connected component is an error.
func stratify(rules []*compiledRule) error {
	n := len(rules)
	succ := make([][]int, n) // i -> rules that read i's head
	negEdge := make(map[[2]int]bool)
	for i, producer := range rules {
		for j, consumer := range rules {
			for _, ref := range consumer.refs {
				if refMatchesHead(ref, producer) {
					succ[i] = append(succ[i], j)
					if ref.negated {
						negEdge[[2]int{i, j}] = true
					}
					break
				}
			}
		}
	}
	// Tarjan's SCC algorithm (iterative would be safer for huge rule
	// sets; rule sets are small, so recursion is fine).
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	var counter int
	var strong func(v int)
	strong = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] == -1 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strong(v)
		}
	}
	// Check for negative edges within a component.
	compOf := make([]int, n)
	for ci, comp := range sccs {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	for e := range negEdge {
		if compOf[e[0]] == compOf[e[1]] {
			comp := sccs[compOf[e[0]]]
			var names []string
			for _, v := range comp {
				names = append(names, rules[v].src.String())
			}
			return &NotStratifiedError{Rules: names}
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation (every component after all components it reaches), so
	// strata count down from len(sccs)-1.
	for ci, comp := range sccs {
		stratum := len(sccs) - 1 - ci
		recursive := len(comp) > 1 || slices.Contains(succ[comp[0]], comp[0])
		for _, v := range comp {
			rules[v].stratum = stratum
			rules[v].recursive = recursive
		}
	}
	return nil
}

// strata groups stratified rules by stratum, lowest first, each in
// registration order.
func strata(rules []*compiledRule) [][]*compiledRule {
	var out [][]*compiledRule
	for _, r := range rules {
		for len(out) <= r.stratum {
			out = append(out, nil)
		}
		out[r.stratum] = append(out[r.stratum], r)
	}
	return out
}

// ---------------------------------------------------------------------------
// Materialization

// RecomputeStats reports work done by one refresh of the derived views:
// a full materialization, or a maintenance pass over a write's delta.
type RecomputeStats struct {
	// Iterations counts fixpoint rounds: one per stratum a full
	// materialization evaluates — a recursive stratum repeats until a
	// round derives nothing new, any other runs exactly once — and one per
	// stratum a delta reaches.
	Iterations   int
	RuleRuns     int // rule body evaluations
	FactsDerived int // make-true operations (delta: element changes) that changed the overlay
	// DecreeCandidates counts the set elements make-true inspected while
	// placing decrees (subsumption and merge-host checks) — on the delta
	// path, the key groups and group members a placement or retraction
	// consulted. Per decree it tracks the index bucket probed, not the
	// size of the target set.
	DecreeCandidates int
	// RuleRows counts the head rows rule bodies produced, plus one per
	// rederivation check on the delta path: the evaluation work that
	// should track a write's delta rather than the data.
	RuleRows int
	Delta    bool // the overlay was maintained by delta instead of rebuilt
}

// materialize evaluates all rules bottom-up by stratum into a fresh
// derived overlay, reading base ∪ overlay. With semiNaive, within a
// recursive stratum a rule re-runs only when the previous iteration
// changed a head its body may read (rule-level semi-naive evaluation).
// It also returns each rule's head rows from its last run — the input
// the next delta refresh indexes (maintain.go). A non-nil span gets one
// child per fixpoint round.
func (e *Engine) materialize(ctx context.Context, span *obs.Span) (derived *object.Tuple, runs map[*compiledRule]*rowSet, stats RecomputeStats, err error) {
	derived = object.NewTuple()
	runs = make(map[*compiledRule]*rowSet, len(e.rules))
	var evalStats Stats
	// The sink (decree.go) holds this materialization's target sets and
	// their decree indexes; it dies with this call.
	sink := newDecreeSink()
	defer func() {
		stats.DecreeCandidates = sink.candidates
		e.addStats(evalStats)
		if e.em != nil {
			e.em.evalWork(evalStats)
		}
	}()
	// Each rule body is ranked once per materialization: the
	// registration-time slot resolution pairs with cost ranks computed at
	// the rule's first run this materialization, then reused across every
	// iteration (and shared read-only by parallel rule waves). The first
	// run happens at the same iteration for every worker count, so the
	// ranks — and the enumeration order they induce — are identical
	// sequentially and in parallel.
	ruleAns := make(map[*compiledRule]*bodyAnalysis)
	anFor := func(rule *compiledRule, effective *object.Tuple) *bodyAnalysis {
		an := ruleAns[rule]
		if an == nil {
			an = e.ranked(rule.body, effective, nil)
			ruleAns[rule] = an
		}
		return an
	}
	// ran applies one rule run's rows and records them.
	ran := func(rule *compiledRule, rows *rowSet) (int, error) {
		stats.RuleRows += rows.len()
		runs[rule] = rows
		n, err := sink.applyRows(rule, derived, rows)
		stats.FactsDerived += n
		return n, err
	}
	for s, stratum := range e.strata {
		changedLast := map[int]bool{} // indexes into stratum changed last iter
		first := true
		for iter := 0; ; iter++ {
			if iter >= e.opts.MaxIterations {
				return nil, nil, stats, fmt.Errorf("core: view materialization exceeded %d iterations (non-terminating rule set?)", e.opts.MaxIterations)
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, nil, stats, err
				}
			}
			stats.Iterations++
			var round *obs.Span
			if span != nil {
				round = span.Child(fmt.Sprintf("stratum%d.round%d", s, iter))
			}
			runsBefore, factsBefore := stats.RuleRuns, stats.FactsDerived
			effective := mergeUniverse(e.base, derived)
			changedNow := map[int]bool{}
			if e.opts.Workers > 1 {
				// Parallel path: evaluate waves of independent rules
				// concurrently, apply derived facts strictly in rule order
				// (see parallel.go for the equivalence argument).
				var affected []int
				for ri, rule := range stratum {
					if e.opts.SemiNaive && !first && !e.ruleAffected(rule, stratum, changedLast) {
						continue
					}
					affected = append(affected, ri)
				}
				for len(affected) > 0 {
					waveLen := ruleWave(stratum, affected)
					wave := make([]*compiledRule, waveLen)
					waveAns := make([]*bodyAnalysis, waveLen)
					for i, ri := range affected[:waveLen] {
						wave[i] = stratum[ri]
						waveAns[i] = anFor(stratum[ri], effective)
					}
					snaps, errs := e.evalRuleBodies(ctx, effective, &evalStats, waveAns)
					for wi, rule := range wave {
						stats.RuleRuns++
						err := errs[wi]
						n := 0
						if err == nil {
							n, err = ran(rule, snaps[wi])
						}
						if err != nil {
							round.End()
							return nil, nil, stats, fmt.Errorf("core: rule %q: %w", rule.src.String(), err)
						}
						if n > 0 {
							changedNow[affected[wi]] = true
						}
					}
					affected = affected[waveLen:]
				}
			} else {
				for ri, rule := range stratum {
					if e.opts.SemiNaive && !first && !e.ruleAffected(rule, stratum, changedLast) {
						continue
					}
					// The read-only half of a rule run: every body row is
					// collected before any make-true applies, because the
					// body may be reading the overlay through the merged
					// universe — which is also what makes this half safe to
					// run concurrently for independent rules (parallel.go).
					stats.RuleRuns++
					rows, err := e.collect(ctx, anFor(rule, effective), readView{eff: effective, opts: e.opts, em: e.em}, &evalStats, nil)
					n := 0
					if err == nil {
						n, err = ran(rule, rows)
					}
					if err != nil {
						round.End()
						return nil, nil, stats, fmt.Errorf("core: rule %q: %w", rule.src.String(), err)
					}
					if n > 0 {
						changedNow[ri] = true
					}
				}
			}
			if round != nil {
				round.SetInt("rule_runs", int64(stats.RuleRuns-runsBefore))
				round.SetInt("facts", int64(stats.FactsDerived-factsBefore))
				round.End()
			}
			// A stratum none of whose rules reads its own heads is done
			// after one round: a second would only confirm that.
			if len(changedNow) == 0 || !stratum[0].recursive {
				break
			}
			changedLast = changedNow
			first = false
		}
	}
	return derived, runs, stats, nil
}

// ruleAffected reports whether rule's body may read the head of any
// stratum-mate that changed in the previous iteration.
func (e *Engine) ruleAffected(rule *compiledRule, stratum []*compiledRule, changed map[int]bool) bool {
	for ri, other := range stratum {
		if !changed[ri] {
			continue
		}
		for _, ref := range rule.refs {
			if refMatchesHead(ref, other) {
				return true
			}
		}
	}
	return false
}

// emptyFor returns the empty object matching an expression's shape.
func emptyFor(e ast.Expr) object.Object {
	switch e.(type) {
	case *ast.SetExpr:
		return object.NewSet()
	case *ast.TupleExpr, *ast.AttrExpr:
		return object.NewTuple()
	case ast.Epsilon:
		return object.NewTuple()
	default:
		return nil
	}
}

// mergeUniverse builds the effective universe: base databases overlaid
// with derived ones. Databases and relations present on only one side are
// shared by reference (queries never mutate); name collisions union the
// two relation sets into a fresh set.
func mergeUniverse(base, derived *object.Tuple) *object.Tuple {
	if derived == nil || derived.Len() == 0 {
		return base
	}
	out := object.NewTuple()
	base.Each(func(dbName string, dbObj object.Object) bool {
		dv, ok := derived.Get(dbName)
		if !ok {
			out.Put(dbName, dbObj)
			return true
		}
		bt, bOK := dbObj.(*object.Tuple)
		dt, dOK := dv.(*object.Tuple)
		if !bOK || !dOK {
			out.Put(dbName, dv) // derived shadows malformed bases
			return true
		}
		out.Put(dbName, mergeDB(bt, dt))
		return true
	})
	derived.Each(func(dbName string, dbObj object.Object) bool {
		if !base.Has(dbName) {
			out.Put(dbName, dbObj)
		}
		return true
	})
	return out
}

func mergeDB(base, derived *object.Tuple) *object.Tuple {
	out := object.NewTuple()
	base.Each(func(rel string, relObj object.Object) bool {
		dv, ok := derived.Get(rel)
		if !ok {
			out.Put(rel, relObj)
			return true
		}
		bs, bOK := relObj.(*object.Set)
		ds, dOK := dv.(*object.Set)
		if !bOK || !dOK {
			out.Put(rel, dv)
			return true
		}
		union := object.NewSet()
		bs.Each(func(e object.Object) bool { union.Add(e); return true })
		ds.Each(func(e object.Object) bool { union.Add(e); return true })
		out.Put(rel, union)
		return true
	})
	derived.Each(func(rel string, relObj object.Object) bool {
		if !base.Has(rel) {
			out.Put(rel, relObj)
		}
		return true
	})
	return out
}
