package core

import (
	"fmt"

	"idl/internal/ast"
	"idl/internal/object"
)

// Head programs (DESIGN.md §18). Every rule head has the form
// `.db.rel(…)` or `.db.rel+(…)`: two names that pick a derived relation
// and a set expression decreeing one element of it. A head is compiled
// once, at rule registration, into a headTarget whose variables are
// resolved to positions in the rule's headVars; each body substitution
// then arrives as a positional row and fills one reusable decree builder
// (decree.go) — no AST walk, no name lookup and no substitution map per
// derived fact.

// headTarget is a compiled rule head: the two names that pick the
// derived relation and the template of the element it decrees.
type headTarget struct {
	db, rel slotName
	elem    *elemTemplate
	consts  []string // the element's attributes under constant names
}

// compileHead compiles a head of the form `.db.rel(…)` or `.db.rel+(…)`
// against the rule's variable slots, returning the relation name term
// beside it; ok is false for any other shape.
func compileHead(head *ast.TupleExpr, slots map[string]int) (t *headTarget, rel ast.Term, ok bool) {
	db, ok := soleAttr(head)
	if !ok {
		return nil, nil, false
	}
	inner, ok := db.Expr.(*ast.TupleExpr)
	if !ok {
		return nil, nil, false
	}
	r, ok := soleAttr(inner)
	if !ok {
		return nil, nil, false
	}
	set, ok := r.Expr.(*ast.SetExpr)
	if !ok {
		return nil, nil, false
	}
	elem := compileElem(set.X, slots)
	return &headTarget{db: compileName(db.Name, slots), rel: compileName(r.Name, slots), elem: elem, consts: constAttrs(elem)}, r.Name, true
}

// soleAttr returns te's attribute expression when it is te's one conjunct.
func soleAttr(te *ast.TupleExpr) (*ast.AttrExpr, bool) {
	if len(te.Conjuncts) != 1 {
		return nil, false
	}
	a, ok := te.Conjuncts[0].(*ast.AttrExpr)
	return a, ok
}

// constAttrs lists the attributes an element template carries under
// constant names — present in every tuple decree a head makes with it.
func constAttrs(elem *elemTemplate) []string {
	var out []string
	if elem.kind == tmplTuple {
		for _, a := range elem.attrs {
			if a.err == nil && a.name.err == nil && a.name.slot < 0 {
				out = append(out, a.name.konst)
			}
		}
	}
	return out
}

// mayTarget reports whether the head may decree into relation k.
func (t *headTarget) mayTarget(k relKey) bool {
	return (t.db.slot >= 0 || t.db.err == nil && t.db.konst == k.db) &&
		(t.rel.slot >= 0 || t.rel.err == nil && t.rel.konst == k.rel)
}

// decree fills d with the element the head decrees under row — what
// make-true places — and returns the relation it lands in.
func (t *headTarget) decree(d *decree, row []object.Object) (relKey, error) {
	db, err := t.db.resolve(row, "head attribute variable")
	if err != nil {
		return relKey{}, unboundHeadName(err)
	}
	rel, err := t.rel.resolve(row, "head attribute variable")
	if err != nil {
		return relKey{}, unboundHeadName(err)
	}
	return relKey{db, rel}, d.fill(t.elem, row)
}

// slotName is an attribute-name term with its variable resolved to a row
// slot.
type slotName struct {
	konst string
	slot  int    // -1 for a constant name
	v     string // the variable's name
	err   error  // a term that cannot name an attribute, reported on use
}

func compileName(t ast.Term, slots map[string]int) slotName {
	switch n := t.(type) {
	case ast.Const:
		s, ok := n.Value.(object.Str)
		if !ok {
			return slotName{err: fmt.Errorf("core: attribute name %s is not a string", n.Value)}
		}
		return slotName{konst: string(s), slot: -1}
	case ast.Var:
		return slotName{slot: slots[n.Name], v: n.Name}
	default:
		return slotName{err: fmt.Errorf("core: attribute name must be constant or variable")}
	}
}

// resolve returns the attribute name under row. An unbound variable is
// an *unboundError; noun words the bound-to-non-string error.
func (n *slotName) resolve(row []object.Object, noun string) (string, error) {
	if n.err != nil {
		return "", n.err
	}
	if n.slot < 0 {
		return n.konst, nil
	}
	v := row[n.slot]
	if v == nil {
		return "", &unboundError{Var: n.v}
	}
	s, ok := v.(object.Str)
	if !ok {
		return "", fmt.Errorf("core: %s %s bound to non-string %s", noun, n.v, v)
	}
	return string(s), nil
}

// slotTerm is a value term with its variables resolved to row slots.
type slotTerm struct {
	konst object.Object
	slot  int    // variable: index into the row; -1 otherwise
	v     string // the variable's name
	op    byte   // arithmetic operator over l and r; 0 otherwise
	l, r  *slotTerm
	err   error
}

func compileTerm(t ast.Term, slots map[string]int) *slotTerm {
	switch x := t.(type) {
	case ast.Const:
		return &slotTerm{konst: x.Value, slot: -1}
	case ast.Var:
		return &slotTerm{slot: slots[x.Name], v: x.Name}
	case ast.Arith:
		return &slotTerm{slot: -1, op: x.Op, l: compileTerm(x.L, slots), r: compileTerm(x.R, slots)}
	default:
		return &slotTerm{slot: -1, err: fmt.Errorf("core: unknown term type %T", t)}
	}
}

func (t *slotTerm) eval(row []object.Object) (object.Object, error) {
	switch {
	case t.err != nil:
		return nil, t.err
	case t.op != 0:
		l, err := t.l.eval(row)
		if err != nil {
			return nil, err
		}
		r, err := t.r.eval(row)
		if err != nil {
			return nil, err
		}
		return applyArith(t.op, l, r)
	case t.slot >= 0:
		if v := row[t.slot]; v != nil {
			return v, nil
		}
		return nil, &unboundError{Var: t.v}
	default:
		return t.konst, nil
	}
}

// An elemTemplate builds the object a head's set expression decrees into
// existence — §5.2's "create an empty object and evaluate +exp on it",
// the same construction updater.buildPlus performs for requests, with
// the terms already resolved.
type tmplKind uint8

const (
	tmplTuple tmplKind = iota // a tuple of attrs; ε is the empty one
	tmplValue                 // `=term`: the term's value, aggregates deep-copied
	tmplSet                   // a set holding the built inner element (none: empty)
	tmplBad                   // rejected when reached
)

type elemTemplate struct {
	kind   tmplKind
	attrs  []tmplAttr     // tmplTuple
	layout *object.Layout // tmplTuple under constant, distinct names: the tuples build makes
	term   *slotTerm      // tmplValue
	inner  *elemTemplate  // tmplSet
	src    ast.Expr       // tmplValue: named by InsertUnboundError
	err    error          // tmplBad
}

type tmplAttr struct {
	name slotName
	val  *elemTemplate
	src  *ast.AttrExpr // named by InsertUnboundError
	err  error         // a conjunct an insert cannot contain, reported when reached
}

func compileElem(e ast.Expr, slots map[string]int) *elemTemplate {
	switch x := e.(type) {
	case ast.Epsilon:
		return &elemTemplate{kind: tmplTuple}
	case *ast.Atomic:
		if x.Op != ast.OpEQ {
			return &elemTemplate{kind: tmplBad, err: fmt.Errorf("core: insert requires simple expressions; %q is not", x.String())}
		}
		return &elemTemplate{kind: tmplValue, term: compileTerm(x.Term, slots), src: x}
	case *ast.AttrExpr:
		return withLayout(&elemTemplate{kind: tmplTuple, attrs: []tmplAttr{compileAttr(x, slots)}})
	case *ast.TupleExpr:
		t := &elemTemplate{kind: tmplTuple}
		for _, c := range x.Conjuncts {
			a, ok := c.(*ast.AttrExpr)
			if !ok {
				t.attrs = append(t.attrs, tmplAttr{err: fmt.Errorf("core: insert requires attribute conjuncts; %q is not", c.String())})
				continue
			}
			t.attrs = append(t.attrs, compileAttr(a, slots))
		}
		return withLayout(t)
	case *ast.SetExpr:
		t := &elemTemplate{kind: tmplSet}
		if _, isEps := x.X.(ast.Epsilon); !isEps {
			t.inner = compileElem(x.X, slots)
		}
		return t
	default:
		return &elemTemplate{kind: tmplBad, err: fmt.Errorf("core: expression %q cannot be inserted", e.String())}
	}
}

// withLayout gives a tuple template whose attributes all compile under
// constant, distinct names the layout of the tuples it builds.
func withLayout(t *elemTemplate) *elemTemplate {
	names := make([]string, len(t.attrs))
	for i, a := range t.attrs {
		if a.err != nil || a.name.err != nil || a.name.slot >= 0 {
			return t
		}
		names[i] = a.name.konst
	}
	t.layout = object.LayoutOf(names)
	return t
}

func compileAttr(a *ast.AttrExpr, slots map[string]int) tmplAttr {
	if a.Sign == ast.SignMinus {
		return tmplAttr{err: fmt.Errorf("core: minus expression %q inside an insert", a.String())}
	}
	return tmplAttr{name: compileName(a.Name, slots), val: compileElem(a.Expr, slots), src: a}
}

// attrPutter receives a tuple template's attributes in source order; a
// repeated name replaces the earlier value in place, as Tuple.Put does.
type attrPutter interface {
	Put(attr string, val object.Object)
}

// fill evaluates a tmplTuple's attributes under row into dst.
func (t *elemTemplate) fill(dst attrPutter, row []object.Object) error {
	for i := range t.attrs {
		a := &t.attrs[i]
		if a.err != nil {
			return a.err
		}
		name, err := a.name.resolve(row, "attribute variable")
		if err != nil {
			return insertErrFrom(err, a.src)
		}
		val, err := a.val.build(row)
		if err != nil {
			return err
		}
		dst.Put(name, val)
	}
	return nil
}

// build evaluates the template under row into a fresh object.
func (t *elemTemplate) build(row []object.Object) (object.Object, error) {
	switch t.kind {
	case tmplTuple:
		if t.layout != nil {
			var buf [8]object.Object
			vals := buf[:0]
			for i := range t.attrs {
				val, err := t.attrs[i].val.build(row)
				if err != nil {
					return nil, err
				}
				vals = append(vals, val)
			}
			return t.layout.New(vals), nil
		}
		tup := object.NewTuple()
		if err := t.fill(tup, row); err != nil {
			return nil, err
		}
		return tup, nil
	case tmplValue:
		val, err := t.term.eval(row)
		if err != nil {
			return nil, insertErrFrom(err, t.src)
		}
		return cloneForStore(val), nil
	case tmplSet:
		s := object.NewSet()
		if t.inner != nil {
			elem, err := t.inner.build(row)
			if err != nil {
				return nil, err
			}
			s.Add(elem)
		}
		return s, nil
	default:
		return nil, t.err
	}
}
