package ast

import "idl/internal/object"

// Shape fingerprints for plan-cache keys. The fingerprint is a 64-bit
// FNV-1a hash over the node structure — type tags, operators, signs,
// variable names and attribute names — so two queries share a
// fingerprint exactly when they differ at most in the values of their
// value-position constants. Names are the schema (paper §3, §4.3) and
// keep their value; a constant compared with, or combined into, a value
// (an Atomic, Constraint or Arith term) is data and is hashed by kind
// alone. It is deliberately not String()-based: renderings can collide (a
// constant string containing syntax) and re-rendering is slower than one
// walk.

const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211

	// fpVersion salts every fingerprint; bump it when the hashing
	// scheme changes so stale persisted keys can never alias.
	fpVersion uint64 = 2
)

func fpByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fpPrime }

func fpUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fpByte(h, byte(v>>(8*i)))
	}
	return h
}

func fpString(h uint64, s string) uint64 {
	h = fpUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fpByte(h, s[i])
	}
	return h
}

// Node type tags. Distinct per syntax node so structurally different
// trees with coincident payloads cannot alias.
const (
	fpTagConst byte = iota + 1
	fpTagVar
	fpTagArith
	fpTagEpsilon
	fpTagNot
	fpTagAtomic
	fpTagAttr
	fpTagTuple
	fpTagConstraint
	fpTagSet
	fpTagVarExpr
	fpTagNil
	fpTagLit
)

// Fingerprint returns the shape hash of a query body.
func Fingerprint(q *Query) uint64 {
	w := fpWalk{h: fpUint64(fpOffset, fpVersion)}
	w.expr(q.Body)
	return w.h
}

// FingerprintLits returns the shape hash of a query body and appends its
// value-position constants to dst, in the walk order the hash visits
// them — the order in which a compiled plan numbers its literal slots.
func FingerprintLits(q *Query, dst []object.Object) (uint64, []object.Object) {
	w := fpWalk{h: fpUint64(fpOffset, fpVersion), lits: dst, collect: true}
	w.expr(q.Body)
	return w.h, w.lits
}

// fpWalk is one fingerprint walk: the running hash and, when collect is
// set, the literals it has lifted so far.
type fpWalk struct {
	h       uint64
	lits    []object.Object
	collect bool
}

// name hashes an attribute-name term: a constant name by value. Nothing
// in name position is lifted.
func (w *fpWalk) name(t Term) {
	switch t := t.(type) {
	case Const:
		w.h = fpByte(w.h, fpTagConst)
		w.h = fpByte(w.h, byte(t.Value.Kind()))
		w.h = fpUint64(w.h, t.Value.Hash())
	case Var, nil:
		w.term(t)
	default:
		w.h = fpString(fpByte(w.h, fpTagNil), t.String())
	}
}

// term hashes a value-position term: a constant by kind only.
func (w *fpWalk) term(t Term) {
	switch t := t.(type) {
	case nil:
		w.h = fpByte(w.h, fpTagNil)
	case Const:
		w.h = fpByte(w.h, fpTagLit)
		w.h = fpByte(w.h, byte(t.Value.Kind()))
		if w.collect {
			w.lits = append(w.lits, t.Value)
		}
	case Var:
		w.h = fpByte(w.h, fpTagVar)
		w.h = fpString(w.h, t.Name)
	case Arith:
		w.h = fpByte(w.h, fpTagArith)
		w.h = fpByte(w.h, t.Op)
		w.term(t.L)
		w.term(t.R)
	default:
		w.h = fpString(fpByte(w.h, fpTagNil), t.String())
	}
}

func (w *fpWalk) expr(e Expr) {
	switch e := e.(type) {
	case nil:
		w.h = fpByte(w.h, fpTagNil)
	case Epsilon:
		w.h = fpByte(w.h, fpTagEpsilon)
	case *Not:
		w.h = fpByte(w.h, fpTagNot)
		w.expr(e.X)
	case *Atomic:
		w.h = fpByte(w.h, fpTagAtomic)
		w.h = fpByte(w.h, byte(e.Sign)+2)
		w.h = fpByte(w.h, byte(e.Op))
		w.term(e.Term)
	case *AttrExpr:
		w.h = fpByte(w.h, fpTagAttr)
		w.h = fpByte(w.h, byte(e.Sign)+2)
		w.name(e.Name)
		w.expr(e.Expr)
	case *TupleExpr:
		w.h = fpByte(w.h, fpTagTuple)
		w.h = fpUint64(w.h, uint64(len(e.Conjuncts)))
		for _, c := range e.Conjuncts {
			w.expr(c)
		}
	case *Constraint:
		w.h = fpByte(w.h, fpTagConstraint)
		w.h = fpByte(w.h, byte(e.Op))
		w.term(e.L)
		w.term(e.R)
	case *SetExpr:
		w.h = fpByte(w.h, fpTagSet)
		w.h = fpByte(w.h, byte(e.Sign)+2)
		w.expr(e.X)
	case *VarExpr:
		w.h = fpByte(w.h, fpTagVarExpr)
		w.h = fpString(w.h, e.Name)
	default:
		w.h = fpString(fpByte(w.h, fpTagNil), e.String())
	}
}
