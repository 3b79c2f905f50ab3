package ast

import (
	"idl/internal/object"
)

// Walk traverses the expression tree depth-first, calling fn for every
// Expr node. fn returning false prunes the subtree.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Not:
		Walk(x.X, fn)
	case *AttrExpr:
		Walk(x.Expr, fn)
	case *TupleExpr:
		for _, c := range x.Conjuncts {
			Walk(c, fn)
		}
	case *SetExpr:
		Walk(x.X, fn)
	}
}

// termVars appends the variable names occurring in t to out.
func termVars(t Term, out []string) []string {
	switch x := t.(type) {
	case Var:
		return append(out, x.Name)
	case Arith:
		out = termVars(x.L, out)
		return termVars(x.R, out)
	}
	return out
}

// Vars returns the variable names occurring in e, in first-occurrence
// order, without duplicates. Higher-order (attribute-position) variables
// are included.
func Vars(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	add := func(list []string) {
		for _, n := range list {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	Walk(e, func(node Expr) bool {
		switch x := node.(type) {
		case *Atomic:
			add(termVars(x.Term, nil))
		case *AttrExpr:
			add(termVars(x.Name, nil))
		case *VarExpr:
			add([]string{x.Name})
		case *Constraint:
			add(termVars(x.L, nil))
			add(termVars(x.R, nil))
		}
		return true
	})
	return names
}

// PositiveVars returns the variables with at least one occurrence outside
// any negation, in first-occurrence order. These are a query's answer
// variables: a variable occurring only under ¬ is existential inside the
// negation-as-failure check and never carries a binding out.
func PositiveVars(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	add := func(list []string) {
		for _, n := range list {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	var rec func(e Expr, underNot bool)
	rec = func(e Expr, underNot bool) {
		if e == nil {
			return
		}
		switch x := e.(type) {
		case *Not:
			rec(x.X, true)
		case *Atomic:
			if !underNot {
				add(termVars(x.Term, nil))
			}
		case *VarExpr:
			if !underNot {
				add([]string{x.Name})
			}
		case *Constraint:
			if !underNot {
				add(termVars(x.L, nil))
				add(termVars(x.R, nil))
			}
		case *AttrExpr:
			if !underNot {
				add(termVars(x.Name, nil))
			}
			rec(x.Expr, underNot)
		case *TupleExpr:
			for _, c := range x.Conjuncts {
				rec(c, underNot)
			}
		case *SetExpr:
			rec(x.X, underNot)
		}
	}
	rec(e, false)
	return names
}

// HigherOrderVars returns the variables that occur in attribute-name
// position anywhere in e, in first-occurrence order.
func HigherOrderVars(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	Walk(e, func(node Expr) bool {
		if a, ok := node.(*AttrExpr); ok {
			if v, isVar := a.Name.(Var); isVar && !seen[v.Name] {
				seen[v.Name] = true
				names = append(names, v.Name)
			}
		}
		return true
	})
	return names
}

// HasUpdate reports whether e contains any signed (update) node.
func HasUpdate(e Expr) bool {
	found := false
	Walk(e, func(node Expr) bool {
		switch x := node.(type) {
		case *Atomic:
			if x.Sign != SignNone {
				found = true
			}
		case *AttrExpr:
			if x.Sign != SignNone {
				found = true
			}
		case *SetExpr:
			if x.Sign != SignNone {
				found = true
			}
		}
		return !found
	})
	return found
}

// IsSimple reports whether e is a simple expression (paper §4.1): only `=`
// atomic expressions, no negation, and no update signs. Rule heads must be
// simple.
func IsSimple(e Expr) bool {
	simple := true
	Walk(e, func(node Expr) bool {
		switch x := node.(type) {
		case *Not:
			simple = false
		case *Atomic:
			if x.Op != OpEQ || x.Sign != SignNone {
				simple = false
			}
		case *AttrExpr:
			if x.Sign != SignNone {
				simple = false
			}
		case *SetExpr:
			if x.Sign != SignNone {
				simple = false
			}
		case *Constraint:
			if x.Op != OpEQ {
				simple = false
			}
		}
		return simple
	})
	return simple
}

// IsGround reports whether e contains no variables.
func IsGround(e Expr) bool { return len(Vars(e)) == 0 }

// ConstName returns the name a constant string term spells, as in the
// `.db` of `.db.rel(…)`; ok is false for a variable or a non-string
// constant.
func ConstName(t Term) (name string, ok bool) {
	c, ok := t.(Const)
	if !ok {
		return "", false
	}
	s, ok := c.Value.(object.Str)
	return string(s), ok
}

// ---------------------------------------------------------------------------
// Construction helpers (used by the public API, tests and benchmarks to
// build expressions without going through the parser).

// Attr builds an attribute conjunct `.name expr` with a constant name.
func Attr(name string, expr Expr) *AttrExpr {
	return &AttrExpr{Name: Const{Value: object.Str(name)}, Expr: expr}
}

// AttrVar builds a higher-order conjunct `.Name expr` with a variable
// attribute name.
func AttrVar(varName string, expr Expr) *AttrExpr {
	return &AttrExpr{Name: Var{Name: varName}, Expr: expr}
}

// Path builds the nested expression `.p0.p1…pn expr`. Each segment is a
// constant attribute name; pass the innermost expression last (nil for ε).
func Path(segments []string, inner Expr) *AttrExpr {
	if len(segments) == 0 {
		panic("ast.Path: need at least one segment")
	}
	if inner == nil {
		inner = Epsilon{}
	}
	e := inner
	for i := len(segments) - 1; i >= 1; i-- {
		e = &TupleExpr{Conjuncts: []Expr{Attr(segments[i], e)}}
	}
	// Unwrap: the outermost segment is returned as an AttrExpr directly.
	if len(segments) == 1 {
		return Attr(segments[0], inner)
	}
	te := e.(*TupleExpr)
	return Attr(segments[0], &TupleExpr{Conjuncts: te.Conjuncts})
}

// Conj builds a tuple expression from conjuncts (attribute expressions,
// negations, or constraints).
func Conj(conjuncts ...Expr) *TupleExpr { return &TupleExpr{Conjuncts: conjuncts} }

// Eq, Ne, Lt, Le, Gt, Ge build atomic comparison expressions against a Go
// literal (converted like object.TupleOf) or an ast.Term.
func Eq(v any) *Atomic { return &Atomic{Op: OpEQ, Term: toTerm(v)} }

// Ne builds `!= v`.
func Ne(v any) *Atomic { return &Atomic{Op: OpNE, Term: toTerm(v)} }

// Lt builds `< v`.
func Lt(v any) *Atomic { return &Atomic{Op: OpLT, Term: toTerm(v)} }

// Le builds `<= v`.
func Le(v any) *Atomic { return &Atomic{Op: OpLE, Term: toTerm(v)} }

// Gt builds `> v`.
func Gt(v any) *Atomic { return &Atomic{Op: OpGT, Term: toTerm(v)} }

// Ge builds `>= v`.
func Ge(v any) *Atomic { return &Atomic{Op: OpGE, Term: toTerm(v)} }

// V builds a variable term.
func V(name string) Var { return Var{Name: name} }

// C builds a constant term from a Go literal.
func C(v any) Const { return Const{Value: toObject(v)} }

// In wraps an expression as a set-membership expression `(exp)`.
func In(e Expr) *SetExpr { return &SetExpr{X: e} }

// Neg negates an expression.
func Neg(e Expr) *Not { return &Not{X: e} }

func toTerm(v any) Term {
	switch x := v.(type) {
	case Term:
		return x
	default:
		return Const{Value: toObject(v)}
	}
}

func toObject(v any) object.Object {
	switch x := v.(type) {
	case object.Object:
		return x
	case nil:
		return object.Null{}
	case bool:
		return object.Bool(x)
	case int:
		return object.Int(x)
	case int64:
		return object.Int(x)
	case float64:
		return object.Float(x)
	case string:
		return object.Str(x)
	default:
		panic("ast: cannot convert value to object")
	}
}
