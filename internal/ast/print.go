package ast

import (
	"idl/internal/object"
)

// String renderings produce valid IDL surface syntax: every AST re-parses
// to an equal AST (tested in internal/parser round-trip tests). One
// append walk, appendExpr/appendTerm, renders a whole tree into one
// buffer; every String is a wrapper over it.

func (c Const) String() string { return termString(c) }

func (v Var) String() string { return v.Name }

func (a Arith) String() string { return termString(a) }

func (Epsilon) String() string { return "" }

func (n *Not) String() string { return exprString(n) }

func (a *Atomic) String() string { return exprString(a) }

func (a *AttrExpr) String() string { return exprString(a) }

func (t *TupleExpr) String() string { return exprString(t) }

func (s *SetExpr) String() string { return exprString(s) }

func (c *Constraint) String() string { return exprString(c) }

func (v *VarExpr) String() string { return exprString(v) }

func (q *Query) String() string {
	var buf [renderBuf]byte
	return string(appendExpr(append(buf[:0], '?'), q.Body, nil))
}

// Template renders q as String does and also appends to holes, for each
// value-position constant in the order FingerprintLits lifts them, the
// byte offsets where its rendering starts and ends: holes[2i] and
// holes[2i+1] bound literal i. The text between the holes is the same
// for every statement of q's shape.
func Template(q *Query, holes []int) (text string, _ []int) {
	var buf [renderBuf]byte
	b := appendExpr(append(buf[:0], '?'), q.Body, &holes)
	return string(b), holes
}

func (r *Rule) String() string { return clauseString(r.Head, " <- ", r.Body) }

func (c *Clause) String() string { return clauseString(c.Head, " -> ", c.Body) }

// renderBuf sizes the stack buffer a rendering starts in. A point
// statement fits, so its string is the rendering's one allocation; a
// longer one grows the buffer onto the heap.
const renderBuf = 128

func termString(t Term) string {
	var buf [renderBuf]byte
	return string(appendTerm(buf[:0], t, nil))
}

func exprString(e Expr) string {
	var buf [renderBuf]byte
	return string(appendExpr(buf[:0], e, nil))
}

func clauseString(head *TupleExpr, arrow string, body *TupleExpr) string {
	var buf [renderBuf]byte
	b := appendExpr(buf[:0], head, nil)
	b = append(b, arrow...)
	return string(appendExpr(b, body, nil))
}

// appendTerm renders a term. holes, when non-nil, collects the span of
// every constant rendered in value position (see Template); an
// attribute name is rendered with nil holes.
func appendTerm(dst []byte, t Term, holes *[]int) []byte {
	switch t := t.(type) {
	case Const:
		start := len(dst)
		dst = object.AppendString(dst, t.Value)
		if holes != nil {
			*holes = append(*holes, start, len(dst))
		}
		return dst
	case Var:
		return append(dst, t.Name...)
	case Arith:
		dst = append(dst, '(')
		dst = appendTerm(dst, t.L, holes)
		dst = append(dst, ' ', t.Op, ' ')
		dst = appendTerm(dst, t.R, holes)
		return append(dst, ')')
	}
	return dst
}

func appendExpr(dst []byte, e Expr, holes *[]int) []byte {
	switch e := e.(type) {
	case *Not:
		return appendExpr(append(dst, '~'), e.X, holes)
	case *Atomic:
		dst = append(dst, e.Sign.String()...)
		dst = append(dst, e.Op.String()...)
		return appendTerm(dst, e.Term, holes)
	case *AttrExpr:
		// Path chains like `.euter.r(...)` and atomic or negated suffixes
		// follow the name with no separator.
		dst = append(dst, e.Sign.String()...)
		dst = appendTerm(append(dst, '.'), e.Name, nil)
		return appendExpr(dst, e.Expr, holes)
	case *TupleExpr:
		for i, c := range e.Conjuncts {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, c, holes)
		}
	case *SetExpr:
		dst = append(dst, e.Sign.String()...)
		dst = appendExpr(append(dst, '('), e.X, holes)
		return append(dst, ')')
	case *Constraint:
		dst = appendTerm(dst, e.L, holes)
		dst = append(dst, ' ')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		return appendTerm(dst, e.R, holes)
	case *VarExpr:
		return append(append(dst, '='), e.Name...)
	}
	// Epsilon, and an AttrExpr's nil suffix, render as nothing.
	return dst
}
