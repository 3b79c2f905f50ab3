package core

import (
	"idl/internal/ast"
)

// Head programs (DESIGN.md §18). Every rule head has the form
// `.db.rel(…)` or `.db.rel+(…)`: two names that pick a derived relation
// and a set expression decreeing one element of it. A head is resolved
// once, at rule registration, in its body's scope, which numbers the
// head variables first: a body substitution reaches the head as a row
// that is that scope's window, and fills one reusable decree builder
// (decree.go) through the construction every insert runs (buildPlus).

// headTarget is a resolved rule head: the terms naming the derived
// relation and the expression of the element it decrees.
type headTarget struct {
	db, rel ast.Term
	elem    ast.Expr
	consts  []string // the element's attributes under constant names
}

// resolveHead resolves a head of the form `.db.rel(…)` or `.db.rel+(…)`
// in sc; ok is false for any other shape.
func resolveHead(head *ast.TupleExpr, sc *scope) (t *headTarget, ok bool) {
	db, ok := soleAttr(head)
	if !ok {
		return nil, false
	}
	inner, ok := db.Expr.(*ast.TupleExpr)
	if !ok {
		return nil, false
	}
	r, ok := soleAttr(inner)
	if !ok {
		return nil, false
	}
	set, ok := r.Expr.(*ast.SetExpr)
	if !ok {
		return nil, false
	}
	return &headTarget{db: sc.resolveName(db.Name), rel: sc.resolveName(r.Name), elem: sc.resolve(set.X), consts: constAttrs(set.X)}, true
}

// soleAttr returns te's attribute expression when it is te's one conjunct.
func soleAttr(te *ast.TupleExpr) (*ast.AttrExpr, bool) {
	if len(te.Conjuncts) != 1 {
		return nil, false
	}
	a, ok := te.Conjuncts[0].(*ast.AttrExpr)
	return a, ok
}

// constAttrs lists the attributes an element expression carries under
// constant names — present in every tuple decree a head makes with it.
func constAttrs(elem ast.Expr) []string {
	conjuncts := []ast.Expr{elem}
	if te, ok := elem.(*ast.TupleExpr); ok {
		conjuncts = te.Conjuncts
	}
	out := make([]string, 0, len(conjuncts))
	for _, c := range conjuncts {
		if a, ok := c.(*ast.AttrExpr); ok && a.Sign != ast.SignMinus {
			if name, ok := ast.ConstName(a.Name); ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// mayTarget reports whether the head may decree into relation k.
func (t *headTarget) mayTarget(k relKey) bool {
	return mayName(t.db, k.db) && mayName(t.rel, k.rel)
}

// mayName reports whether a name term may evaluate to name: a variable
// may name anything.
func mayName(t ast.Term, name string) bool {
	if _, ok := t.(ast.Var); ok {
		return true
	}
	c, ok := ast.ConstName(t)
	return ok && c == name
}

// decree fills d with the element the head decrees under env — what
// make-true places — and returns the relation it lands in.
func (t *headTarget) decree(d *decree, env *Env) (relKey, error) {
	db, err := attrName(t.db, env, "head attribute variable")
	if err != nil {
		return relKey{}, unboundHeadName(err)
	}
	rel, err := attrName(t.rel, env, "head attribute variable")
	if err != nil {
		return relKey{}, unboundHeadName(err)
	}
	return relKey{db, rel}, d.fill(t.elem, env)
}
