package core

import (
	"slices"

	"idl/internal/ast"
)

// Slot resolution (DESIGN.md §19). Every compiled unit — a query plan, a
// rule, an update request, an update-program clause — owns a scope: a
// numbering of the unit's variables. Resolving a unit copies its AST with
// every variable occurrence stamped with its slot and every tuple
// expression with an ID, so evaluation reads and writes a substitution as
// a slice indexed by slot and finds a conjunct list's safety analysis and
// scheduler frame by ID — no name is hashed once the unit is compiled.
// The copy is private to the unit (callers' trees are never written, so
// they may be shared freely) and always a tree, whatever sharing the
// source had.
//
// A query plan also lifts its literals: every constant in value position
// (an Atomic, Constraint or Arith term — never an attribute name, which
// is schema) gets a slot of its own, numbered in the walk order of
// ast.FingerprintLits, and each read binds its own statement's literals
// into those slots before it evaluates. One plan then serves every
// statement of its shape. Rules, program clauses and update requests
// keep their constants.

// scope numbers one compiled unit's variables and tuple expressions.
// Slot 0 and tuple ID 0 are reserved for "unresolved", which is what a
// parsed or API-built tree carries.
type scope struct {
	// names maps slot → variable name. The reverse lookup is a scan: it
	// happens only while compiling, over a handful of names.
	names []string
	// tuples holds, by ast.TupleExpr.ID, the safety analysis of every
	// conjunct list that needs scheduling (two or more conjuncts).
	tuples []tupleInfo
	// maskLen is the total conjunct count over tuples: evaluators carve
	// each frame's used-mask out of one allocation of this size.
	maskLen int
	// lift makes resolve give value-position constants slots; lits
	// holds those slots in walk order. A literal slot has no name.
	lift bool
	lits []int32
}

// tupleInfo is the environment-independent analysis of one conjunct list.
type tupleInfo struct {
	// consumed lists, per conjunct, the slots it can only test, not bind
	// (see consumedVars); the scheduler defers it until all are bound.
	consumed [][]int32
	maskOff  int // where the list's used-mask starts in the evaluator's arena
}

// newScope returns a scope whose first slots are the given variables in
// order — the unit's output signature (a query's answer variables, a
// rule's head variables), so an output row is a prefix of the
// substitution.
func newScope(first []string) *scope {
	sc := &scope{
		names:  make([]string, 1, len(first)+4),
		tuples: make([]tupleInfo, 1, 4),
	}
	for _, v := range first {
		sc.slot(v)
	}
	return sc
}

// size is the length of a substitution over the scope (reserved slot
// included).
func (sc *scope) size() int { return len(sc.names) }

// lookup returns name's slot, 0 when the scope has no such variable.
func (sc *scope) lookup(name string) int32 {
	return int32(1 + slices.Index(sc.names[1:], name))
}

// slot returns name's slot, numbering it on first sight.
func (sc *scope) slot(name string) int32 {
	if s := sc.lookup(name); s != 0 {
		return s
	}
	sc.names = append(sc.names, name)
	return int32(len(sc.names) - 1)
}

// resolveBody resolves a statement body (a conjunct list always comes
// back as one).
func (sc *scope) resolveBody(body *ast.TupleExpr) *ast.TupleExpr {
	return sc.resolve(body).(*ast.TupleExpr)
}

// resolve returns a copy of e with slots and tuple IDs assigned.
// Resolving an already resolved tree renumbers the copy, so plans can be
// recompiled from their own AST.
func (sc *scope) resolve(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Not:
		return &ast.Not{X: sc.resolve(x.X)}
	case *ast.Atomic:
		return &ast.Atomic{Sign: x.Sign, Op: x.Op, Term: sc.resolveTerm(x.Term)}
	case *ast.VarExpr:
		// `=R` in node form: one shape for the evaluator to handle.
		return &ast.Atomic{Op: ast.OpEQ, Term: ast.Var{Name: x.Name, Slot: sc.slot(x.Name)}}
	case *ast.Constraint:
		return &ast.Constraint{L: sc.resolveTerm(x.L), Op: x.Op, R: sc.resolveTerm(x.R)}
	case *ast.AttrExpr:
		name := x.Name
		if v, ok := name.(ast.Var); ok {
			name = ast.Var{Name: v.Name, Slot: sc.slot(v.Name)}
		}
		return &ast.AttrExpr{Sign: x.Sign, Name: name, Expr: sc.resolve(x.Expr)}
	case *ast.SetExpr:
		return &ast.SetExpr{Sign: x.Sign, X: sc.resolve(x.X)}
	case *ast.TupleExpr:
		out := &ast.TupleExpr{Conjuncts: make([]ast.Expr, len(x.Conjuncts))}
		for i, c := range x.Conjuncts {
			out.Conjuncts[i] = sc.resolve(c)
		}
		if len(out.Conjuncts) > 1 {
			out.ID = int32(len(sc.tuples))
			sc.tuples = append(sc.tuples, tupleInfo{consumed: sc.consumedSlots(out.Conjuncts), maskOff: sc.maskLen})
			sc.maskLen += len(out.Conjuncts)
		}
		return out
	default:
		return e // ε, nil, and node types the evaluator rejects by itself
	}
}

// resolveTerm resolves a value-position term.
func (sc *scope) resolveTerm(t ast.Term) ast.Term {
	switch x := t.(type) {
	case ast.Const:
		if !sc.lift {
			return t
		}
		sc.names = append(sc.names, "")
		slot := int32(len(sc.names) - 1)
		sc.lits = append(sc.lits, slot)
		return ast.Const{Value: x.Value, Slot: slot}
	case ast.Var:
		return ast.Var{Name: x.Name, Slot: sc.slot(x.Name)}
	case ast.Arith:
		return ast.Arith{Op: x.Op, L: sc.resolveTerm(x.L), R: sc.resolveTerm(x.R)}
	default:
		return t
	}
}

// unlift returns a copy of a resolved expression with every lifted
// literal replaced by the constant env binds to its slot, for rendering:
// an error or an EXPLAIN step shows the literals of the statement being
// read, not those of the statement its shared plan was compiled for.
func unlift(e ast.Expr, env *Env) ast.Expr {
	switch x := e.(type) {
	case *ast.Not:
		return &ast.Not{X: unlift(x.X, env)}
	case *ast.Atomic:
		return &ast.Atomic{Sign: x.Sign, Op: x.Op, Term: unliftTerm(x.Term, env)}
	case *ast.Constraint:
		return &ast.Constraint{L: unliftTerm(x.L, env), Op: x.Op, R: unliftTerm(x.R, env)}
	case *ast.AttrExpr:
		return &ast.AttrExpr{Sign: x.Sign, Name: x.Name, Expr: unlift(x.Expr, env)}
	case *ast.SetExpr:
		return &ast.SetExpr{Sign: x.Sign, X: unlift(x.X, env)}
	case *ast.TupleExpr:
		out := &ast.TupleExpr{Conjuncts: make([]ast.Expr, len(x.Conjuncts))}
		for i, c := range x.Conjuncts {
			out.Conjuncts[i] = unlift(c, env)
		}
		return out
	default:
		return e
	}
}

func unliftTerm(t ast.Term, env *Env) ast.Term {
	switch x := t.(type) {
	case ast.Const:
		if x.Slot != 0 {
			return ast.Const{Value: env.vals[x.Slot]}
		}
	case ast.Arith:
		return ast.Arith{Op: x.Op, L: unliftTerm(x.L, env), R: unliftTerm(x.R, env)}
	}
	return t
}

// consumedSlots is consumedVars over resolved conjuncts, as slot lists.
func (sc *scope) consumedSlots(conjuncts []ast.Expr) [][]int32 {
	lists := make([][]int32, len(conjuncts))
	for i, c := range conjuncts {
		for _, v := range consumedVars(c) {
			lists[i] = append(lists[i], sc.lookup(v))
		}
	}
	return lists
}
