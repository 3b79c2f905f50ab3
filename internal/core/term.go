package core

import (
	"fmt"

	"idl/internal/ast"
	"idl/internal/object"
)

// errUnbound is the distinguished "term not ground under this
// substitution" condition; callers decide whether that means "bindable",
// "delay this conjunct", or a hard error.
type unboundError struct {
	Var string
}

func (e *unboundError) Error() string {
	return fmt.Sprintf("variable %s is unbound", e.Var)
}

// evalTerm evaluates a term under env. It returns an unboundError when a
// variable in the term is unbound.
func evalTerm(t ast.Term, env *Env) (object.Object, error) {
	switch x := t.(type) {
	case ast.Const:
		if x.Slot != 0 {
			return env.vals[x.Slot], nil // a plan's lifted literal
		}
		return x.Value, nil
	case ast.Var:
		if v, ok := env.Lookup(x.Slot); ok {
			return v, nil
		}
		return nil, &unboundError{Var: x.Name}
	case ast.Arith:
		l, err := evalTerm(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := evalTerm(x.R, env)
		if err != nil {
			return nil, err
		}
		return applyArith(x.Op, l, r)
	default:
		return nil, fmt.Errorf("core: unknown term type %T", t)
	}
}

// attrName evaluates an attribute-name term under env: a constant
// string, or a variable bound to a string. An unbound variable is an
// *unboundError; noun words the error for one bound to anything else.
func attrName(t ast.Term, env *Env, noun string) (string, error) {
	switch n := t.(type) {
	case ast.Const:
		s, ok := n.Value.(object.Str)
		if !ok {
			return "", fmt.Errorf("core: attribute name %s is not a string", n.Value)
		}
		return string(s), nil
	case ast.Var:
		v, ok := env.Lookup(n.Slot)
		if !ok {
			return "", &unboundError{Var: n.Name}
		}
		s, ok := v.(object.Str)
		if !ok {
			return "", fmt.Errorf("core: %s %s bound to non-string %s", noun, n.Name, v)
		}
		return string(s), nil
	default:
		return "", fmt.Errorf("core: attribute name must be constant or variable")
	}
}

// applyArith computes l op r for numeric atoms. Integer arithmetic stays
// integral; any float operand promotes the result to float.
func applyArith(op byte, l, r object.Object) (object.Object, error) {
	li, lInt := l.(object.Int)
	ri, rInt := r.(object.Int)
	if lInt && rInt {
		switch op {
		case '+':
			return li + ri, nil
		case '-':
			return li - ri, nil
		case '*':
			return li * ri, nil
		}
	}
	lf, lok := numeric(l)
	rf, rok := numeric(r)
	if !lok || !rok {
		return nil, fmt.Errorf("core: arithmetic %c on non-numeric operands %s and %s", op, l, r)
	}
	switch op {
	case '+':
		return object.Float(lf + rf), nil
	case '-':
		return object.Float(lf - rf), nil
	case '*':
		return object.Float(lf * rf), nil
	default:
		return nil, fmt.Errorf("core: unknown arithmetic operator %c", op)
	}
}

func numeric(o object.Object) (float64, bool) {
	switch v := o.(type) {
	case object.Int:
		return float64(v), true
	case object.Float:
		return float64(v), true
	}
	return 0, false
}

// compare applies a relational operator to two objects. Equality and
// inequality are defined for every pair; ordering operators require
// comparable kinds (both numeric, both strings, both dates, or both
// bools) and are false otherwise. The null atomic object satisfies no
// comparison (paper §5.2's simplifying assumption).
func compare(op ast.RelOp, o, c object.Object) bool {
	if _, isNull := o.(object.Null); isNull {
		return false
	}
	if _, isNull := c.(object.Null); isNull {
		return false
	}
	switch op {
	case ast.OpEQ:
		return o.Equal(c)
	case ast.OpNE:
		return !o.Equal(c)
	}
	if !object.Comparable(o, c) {
		return false
	}
	cmp := o.Compare(c)
	switch op {
	case ast.OpLT:
		return cmp < 0
	case ast.OpLE:
		return cmp <= 0
	case ast.OpGT:
		return cmp > 0
	case ast.OpGE:
		return cmp >= 0
	default:
		return false
	}
}

// termVarNames lists the variables in a term.
func termVarNames(t ast.Term) []string {
	var out []string
	var rec func(ast.Term)
	rec = func(t ast.Term) {
		switch x := t.(type) {
		case ast.Var:
			out = append(out, x.Name)
		case ast.Arith:
			rec(x.L)
			rec(x.R)
		}
	}
	rec(t)
	return out
}

// singleUnboundVar reports whether t is exactly one unbound variable,
// and returns it.
func singleUnboundVar(t ast.Term, env *Env) (ast.Var, bool) {
	v, ok := t.(ast.Var)
	if !ok || env.Bound(v.Slot) {
		return ast.Var{}, false
	}
	return v, true
}
