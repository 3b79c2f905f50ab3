// Package ast defines the abstract syntax of IDL: query expressions
// (paper §4.1), higher-order tuple expressions (§4.3), update expressions
// (§5.1), rules/views (§6) and update programs (§7).
//
// The grammar implemented (paper grammar plus the extensions the paper
// uses informally — negation on any expression, top-level conjunction,
// variables as attribute names, signed sub-expressions, arithmetic):
//
//	Exp    → ¬ PExp | PExp
//	PExp   → Aexp | Texp | Sexp | ε
//	Aexp   → [sign] Relop Term
//	Texp   → [sign] .Aname Exp { , Texp }
//	Sexp   → [sign] ( Exp )
//	Aname  → constant | Variable          (variable ⇒ higher-order)
//	Relop  → < | ≤ | = | ≠ | > | ≥
//	Term   → constant | Variable | Term (+|-|*) Term
//	sign   → + | -
//
//	Query   → ? Texp                      (conjunction over the universe)
//	Rule    → Texp ← Texp                 (head simple, body general)
//	Clause  → Texp → Texp                 (update program clause)
package ast

import (
	"idl/internal/object"
)

// RelOp is a comparison operator in an atomic expression.
type RelOp uint8

// The six relational operators of the paper's grammar.
const (
	OpEQ RelOp = iota // =
	OpNE              // ≠ (!=)
	OpLT              // <
	OpLE              // ≤ (<=)
	OpGT              // >
	OpGE              // ≥ (>=)
)

// String returns the ASCII rendering of the operator.
func (op RelOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?op?"
	}
}

// Sign marks an expression as a query part (SignNone) or as an update
// expression: plus (insert / make-true) or minus (delete / make-false).
type Sign int8

// Sign values.
const (
	SignNone  Sign = 0
	SignPlus  Sign = 1
	SignMinus Sign = -1
)

// String returns "", "+" or "-".
func (s Sign) String() string {
	switch s {
	case SignPlus:
		return "+"
	case SignMinus:
		return "-"
	default:
		return ""
	}
}

// ---------------------------------------------------------------------------
// Terms

// Term is a value-producing syntax node: a constant, a variable, or an
// arithmetic combination (the paper assumes arithmetic in footnote 8).
type Term interface {
	isTerm()
	String() string
}

// Const is a literal object (atom; aggregates occur via the API).
//
// Slot is non-zero only on a constant in value position of a compiled
// query plan (internal/core/slots.go): the plan then reads the literal
// from that slot of the substitution, where each read binds its own
// statement's literal, so one plan serves every statement of its shape.
// Like Var.Slot it is not part of the syntax: printing and
// fingerprinting ignore it.
type Const struct {
	Value object.Object
	Slot  int32
}

// Var is a logical variable. Variables whose occurrences include
// attribute-name positions are higher-order variables (§4.3).
//
// Slot is the variable's position in its compiled unit's substitution,
// assigned when the evaluator resolves a private copy of the statement
// (internal/core/slots.go); 0 on parsed and API-built trees. It is not
// part of the syntax: printing and fingerprinting ignore it.
type Var struct {
	Name string
	Slot int32
}

// Arith is a binary arithmetic term over numeric atoms.
type Arith struct {
	Op   byte // '+', '-', '*'
	L, R Term
}

func (Const) isTerm() {}
func (Var) isTerm()   {}
func (Arith) isTerm() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression evaluated against an object. The Sign-carrying
// nodes (Atomic, AttrExpr, SetExpr) double as the paper's update
// expressions when their sign is non-zero.
type Expr interface {
	isExpr()
	String() string
}

// Epsilon is ε, the tautological expression satisfied by every object.
type Epsilon struct{}

// Not is a negated expression ¬exp (negation as failure).
type Not struct {
	X Expr
}

// Atomic is an atomic expression `[sign] relop term`, evaluated on atomic
// objects. With SignPlus it is the atomic plus expression `+=c` (replace
// value); with SignMinus the atomic minus `-=c` (null out if satisfied).
type Atomic struct {
	Sign Sign
	Op   RelOp
	Term Term
}

// AttrExpr is one conjunct of a tuple expression: `[sign] .name exp`.
// Name is a Const(Str) for ordinary attributes or a Var for higher-order
// quantification over attribute names. With SignPlus it creates/resets the
// attribute (tuple plus, §5.2); with SignMinus it deletes the attribute if
// the associated object satisfies Expr (tuple minus).
type AttrExpr struct {
	Sign Sign
	Name Term // Const(Str) or Var
	Expr Expr // may be Epsilon
	// Site caches where a constant Name sits in the tuples this
	// expression reads (object.Site), for the evaluators of a resolved
	// tree; printing and fingerprints ignore it.
	Site object.Site
}

// TupleExpr is a conjunction of conjuncts evaluated on a tuple object.
// Conjuncts are *AttrExpr, *Not (negating a conjunct), or *Constraint
// (the paper's footnote-7 Datalog-style `X = ource` form). Conjuncts may
// repeat an attribute (self-joins) — each conjunct must be satisfied under
// one shared substitution, but set-membership witnesses inside different
// conjuncts may differ.
type TupleExpr struct {
	Conjuncts []Expr
	// ID numbers the tuple expression within its compiled unit, assigned
	// with the variable slots; 0 on parsed and API-built trees.
	ID int32
}

// Constraint is a Datalog-style side condition between two terms, e.g.
// `X = ource` or `P > Q`. The paper admits these informally (footnote 7);
// they evaluate against the substitution alone, not against any object.
type Constraint struct {
	L  Term
	Op RelOp
	R  Term
}

// SetExpr is `[sign] ( exp )`, evaluated on a set object. Unsigned: ∃
// element satisfying exp. SignPlus: insert a new element made true by exp.
// SignMinus: delete every element satisfying exp.
type SetExpr struct {
	Sign Sign
	X    Expr
}

// VarExpr lets a variable stand for a whole aggregate object in value
// position ("the more general ability to have variables representing
// aggregate objects", §4.1). `.euter.r = R` binds R to the relation
// object. Syntactically it is an Atomic with OpEQ; we keep a distinct node
// only where the operand must bind structures — the parser emits Atomic
// and the evaluator handles aggregate binding, so this node exists for API
// construction convenience.
type VarExpr struct {
	Name string
}

func (Epsilon) isExpr()     {}
func (*Not) isExpr()        {}
func (*Atomic) isExpr()     {}
func (*AttrExpr) isExpr()   {}
func (*TupleExpr) isExpr()  {}
func (*SetExpr) isExpr()    {}
func (*VarExpr) isExpr()    {}
func (*Constraint) isExpr() {}

// ---------------------------------------------------------------------------
// Statements

// Query is `? conjuncts` — a conjunction of expressions on the universe
// tuple under one substitution. When any conjunct contains an update sign
// it is an update request (§5.1) and conjuncts execute left → right.
type Query struct {
	Body *TupleExpr
}

// Rule is a view definition `head ← body` (§6). Head must be a simple
// tuple expression (only `=` atomics, no negation, no signs) whose
// variables all occur in the body. A rule whose head contains a
// higher-order variable defines a higher-order view.
type Rule struct {
	Head *TupleExpr
	Body *TupleExpr
}

// Clause is one clause of an update program `head → body` (§7.1). The
// head names the program and declares its parameters; the body is a
// conjunction of query and update expressions executed left → right.
// All clauses sharing a head name execute on invocation, in program order.
type Clause struct {
	Head *TupleExpr
	Body *TupleExpr
}

// Statement is any parsed top-level form.
type Statement interface {
	isStatement()
	String() string
}

func (*Query) isStatement()  {}
func (*Rule) isStatement()   {}
func (*Clause) isStatement() {}
