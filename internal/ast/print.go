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
	return string(appendExpr(append(buf[:0], '?'), q.Body))
}

func (r *Rule) String() string { return clauseString(r.Head, " <- ", r.Body) }

func (c *Clause) String() string { return clauseString(c.Head, " -> ", c.Body) }

// renderBuf sizes the stack buffer a rendering starts in. A point
// statement fits, so its string is the rendering's one allocation; a
// longer one grows the buffer onto the heap.
const renderBuf = 128

func termString(t Term) string {
	var buf [renderBuf]byte
	return string(appendTerm(buf[:0], t))
}

func exprString(e Expr) string {
	var buf [renderBuf]byte
	return string(appendExpr(buf[:0], e))
}

func clauseString(head *TupleExpr, arrow string, body *TupleExpr) string {
	var buf [renderBuf]byte
	b := appendExpr(buf[:0], head)
	b = append(b, arrow...)
	return string(appendExpr(b, body))
}

func appendTerm(dst []byte, t Term) []byte {
	switch t := t.(type) {
	case Const:
		return object.AppendString(dst, t.Value)
	case Var:
		return append(dst, t.Name...)
	case Arith:
		dst = append(dst, '(')
		dst = appendTerm(dst, t.L)
		dst = append(dst, ' ', t.Op, ' ')
		dst = appendTerm(dst, t.R)
		return append(dst, ')')
	}
	return dst
}

func appendExpr(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case *Not:
		return appendExpr(append(dst, '~'), e.X)
	case *Atomic:
		dst = append(dst, e.Sign.String()...)
		dst = append(dst, e.Op.String()...)
		return appendTerm(dst, e.Term)
	case *AttrExpr:
		// Path chains like `.euter.r(...)` and atomic or negated suffixes
		// follow the name with no separator.
		dst = append(dst, e.Sign.String()...)
		dst = appendTerm(append(dst, '.'), e.Name)
		return appendExpr(dst, e.Expr)
	case *TupleExpr:
		for i, c := range e.Conjuncts {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, c)
		}
	case *SetExpr:
		dst = append(dst, e.Sign.String()...)
		dst = appendExpr(append(dst, '('), e.X)
		return append(dst, ')')
	case *Constraint:
		dst = appendTerm(dst, e.L)
		dst = append(dst, ' ')
		dst = append(dst, e.Op.String()...)
		dst = append(dst, ' ')
		return appendTerm(dst, e.R)
	case *VarExpr:
		return append(append(dst, '='), e.Name...)
	}
	// Epsilon, and an AttrExpr's nil suffix, render as nothing.
	return dst
}
