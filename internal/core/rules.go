package core

import (
	"fmt"
	"slices"

	"idl/internal/ast"
	"idl/internal/object"
)

// A compiledRule is a validated view rule with the metadata stratification
// needs: its head pattern (db, relation term) and the (db, rel) patterns
// its body references, each flagged if it occurs under negation.
type compiledRule struct {
	src     *ast.Rule
	headDB  string   // constant database name (head level 1)
	headRel ast.Term // constant or variable (head level 2)
	refs    []patternRef
	stratum int
	// recursive marks a rule whose stratum is a dependency cycle (or
	// reads its own head): its stratum iterates to a fixpoint.
	recursive bool
	// headVars are the head's variables in first-occurrence order; a body
	// substitution reaches the head as a row holding them positionally.
	// target is the head compiled against those positions (head.go).
	headVars []string
	target   *headTarget
	// body is the body slot-resolved once at registration, its output row
	// the head variables; each run pairs it with fresh cost ranks
	// (Engine.ranked).
	body *bodyAnalysis
	// reads are every universe read of the body, for view maintenance by
	// delta (maintain.go).
	reads []ruleRead
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
// expression `.db.rel(…)` or `.db.rel+(…)` on the universe, with a
// constant database name, whose variables all occur in the body.
func compileRule(r *ast.Rule) (*compiledRule, error) {
	if r.Head == nil {
		return nil, errHeadShape(r)
	}
	if !headSimpleEnough(r.Head) {
		return nil, fmt.Errorf("core: rule head %q must be a simple expression (only '=', no negation, no signs beyond the insertion '+')", r.Head.String())
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
	target, rel, ok := compileHead(r.Head, slots)
	if !ok {
		return nil, errHeadShape(r)
	}
	if target.db.slot >= 0 || target.db.err != nil {
		return nil, fmt.Errorf("core: rule head database name must be a constant string")
	}
	return &compiledRule{
		src:      r,
		headDB:   target.db.konst,
		headRel:  rel,
		refs:     collectRefs(r.Body),
		headVars: headVars,
		target:   target,
		body:     resolveUnit(headVars, r.Body, false),
		reads:    compileReads(r.Body, headVars),
	}, nil
}

// errHeadShape rejects a head that is not `.db.rel(…)` or `.db.rel+(…)`.
func errHeadShape(r *ast.Rule) error {
	return fmt.Errorf("core: rule head %v must have the form .db.rel(…) or .db.rel+(…)", r.Head)
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
				body: resolveUnit(headVars, &ast.TupleExpr{Conjuncts: conjuncts}, false),
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

// headSimpleEnough reports whether a head is simple (§6): only '=', no
// negation or constraint, and no sign but the insertion '+' of its set
// expression.
func headSimpleEnough(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Not, *ast.Constraint:
		return false
	case *ast.Atomic:
		return x.Op == ast.OpEQ && x.Sign == ast.SignNone
	case *ast.AttrExpr:
		return x.Sign == ast.SignNone && headSimpleEnough(x.Expr)
	case *ast.TupleExpr:
		for _, c := range x.Conjuncts {
			if !headSimpleEnough(c) {
				return false
			}
		}
	case *ast.SetExpr:
		return x.Sign != ast.SignMinus && headSimpleEnough(x.X)
	}
	return true
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
// a full refresh from the empty overlay, or a delta refresh over a
// write's captured change (maintain.go).
type RecomputeStats struct {
	// Iterations counts fixpoint rounds: one per stratum the refresh
	// reaches, and one more for each further round a recursive stratum
	// takes until a round derives no change.
	Iterations   int
	RuleRuns     int // rule body evaluations (full runs and delta passes)
	FactsDerived int // derived element changes: elements added or removed
	// DecreeCandidates counts the decree supports and group members
	// make-true consulted: one per decree a placement gains or a
	// retraction drops, plus the members left in a group a retraction
	// touched.
	DecreeCandidates int
	// RuleRows counts the head rows rule bodies produced, plus one per
	// rederivation check: the evaluation work that should track a
	// write's delta rather than the data.
	RuleRows int
	Delta    bool // the overlay was maintained by delta instead of rebuilt
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
