package core

import (
	"fmt"

	"idl/internal/ast"
	"idl/internal/object"
)

// Head programs (DESIGN.md §18). A rule head is walked once, at rule
// registration, into a headNode tree whose variables are resolved to
// positions in the rule's headVars; each body substitution then arrives
// as a positional row and drives the tree through a decreeSink
// (decree.go) — no AST walk, no name lookup and no substitution map per
// derived fact. The tree keeps make-true's §6 shape exactly: tuple
// expressions apply every conjunct to one tuple, attribute expressions
// navigate-or-create, and a set expression is the decree itself.
// Expressions make-true rejects compile to nodes that report the error
// when a row reaches them, as the interpreted walk did.

type headKind uint8

const (
	headTuple headKind = iota // every kid applies to the same tuple
	headAttr                  // navigate-or-create name, apply kids[0] to its value
	headSet                   // the decree: some element of the set satisfies elem
	headBad                   // rejected when reached
)

type headNode struct {
	kind headKind
	kids []*headNode
	name slotName      // headAttr
	src  *ast.AttrExpr // headAttr: the shape to create when the attribute is absent
	elem *elemTemplate // headSet
	err  error         // headBad
}

// compileHead compiles a head expression against the rule's variable
// slots.
func compileHead(e ast.Expr, slots map[string]int) *headNode {
	switch x := e.(type) {
	case *ast.TupleExpr:
		n := &headNode{kind: headTuple}
		for _, c := range x.Conjuncts {
			n.kids = append(n.kids, compileHead(c, slots))
		}
		return n
	case *ast.AttrExpr:
		return &headNode{kind: headAttr, name: compileName(x.Name, slots), src: x, kids: []*headNode{compileHead(x.Expr, slots)}}
	case *ast.SetExpr:
		return &headNode{kind: headSet, elem: compileElem(x.X, slots)}
	case *ast.Atomic:
		return &headNode{kind: headBad, err: fmt.Errorf("core: head atomic expression %q has no enclosing location; heads must decree facts inside tuples or sets", x.String())}
	default:
		return &headNode{kind: headBad, err: fmt.Errorf("core: expression %q cannot appear in a rule head", e.String())}
	}
}

// headTarget is a rule head of the form `.db.rel+(…)` — every head the
// paper writes — taken apart for view maintenance (maintain.go): the two
// names that pick the derived relation and the template of the element
// it decrees.
type headTarget struct {
	db, rel slotName
	elem    *elemTemplate
}

// relTarget returns the head as a headTarget, nil for any other shape.
func (n *headNode) relTarget() *headTarget {
	var names []slotName
	for len(names) < 2 {
		if n.kind != headTuple || len(n.kids) != 1 || n.kids[0].kind != headAttr {
			return nil
		}
		names = append(names, n.kids[0].name)
		n = n.kids[0].kids[0]
	}
	if n.kind != headSet {
		return nil
	}
	return &headTarget{db: names[0], rel: names[1], elem: n.elem}
}

// constAttrs lists the attributes the head's element carries under
// constant names — present in every tuple decree the head makes.
func (t *headTarget) constAttrs() []string {
	var out []string
	if t.elem.kind == tmplTuple {
		for _, a := range t.elem.attrs {
			if a.err == nil && a.name.err == nil && a.name.slot < 0 {
				out = append(out, a.name.konst)
			}
		}
	}
	return out
}

// decree returns the relation and the element r's head decrees under
// row — what make-true would place — without touching the overlay.
func (r *compiledRule) decree(row []object.Object) (relKey, object.Object, error) {
	t := r.target
	db, err := t.db.resolve(row, "head attribute variable")
	if err != nil {
		return relKey{}, nil, unboundHeadName(err)
	}
	rel, err := t.rel.resolve(row, "head attribute variable")
	if err != nil {
		return relKey{}, nil, unboundHeadName(err)
	}
	d, err := t.elem.build(row)
	return relKey{db, rel}, d, err
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
	kind  tmplKind
	attrs []tmplAttr    // tmplTuple
	term  *slotTerm     // tmplValue
	inner *elemTemplate // tmplSet
	src   ast.Expr      // tmplValue: named by InsertUnboundError
	err   error         // tmplBad
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
		return &elemTemplate{kind: tmplTuple, attrs: []tmplAttr{compileAttr(x, slots)}}
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
		return t
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
