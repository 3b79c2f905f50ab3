package core

import (
	"fmt"
	"sort"

	"idl/internal/ast"
	"idl/internal/object"
)

// A compiledClause is one clause of an update program (§7.1): a head that
// names the program and declares parameters, and a body of query/update
// expressions executed left → right.
type compiledClause struct {
	src       *ast.Clause
	db        string   // head level-1 name (namespace, e.g. dbU)
	name      string   // head level-2 name for callable programs
	relTerm   ast.Term // head level-2 term for view updaters (const or var)
	sign      ast.Sign // SignNone: callable program; +/-: view updater
	params    *ast.TupleExpr
	paramVars []string // head parameter variables in declaration order
	required  []string // parameters that must be bound at call time
	// an is the body slot-resolved once at registration, its scope
	// numbering the head's parameter variables first — the clause-body
	// half of compile-once-execute-many.
	an *bodyAnalysis
}

// Program is a named update program: all clauses registered under one
// (db, name), executed in registration order on invocation.
type Program struct {
	DB      string
	Name    string
	Clauses []*compiledClause
}

// Required returns the union of parameters any clause requires bound (the
// program's binding signature, §7.1).
func (p *Program) Required() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.Clauses {
		for _, v := range c.required {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Params returns the union of declared parameter names across clauses.
func (p *Program) Params() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p.Clauses {
		for _, pv := range c.paramVars {
			if !seen[pv] {
				seen[pv] = true
				out = append(out, pv)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ParamAttrs maps each parameter variable to the attribute name that
// carries it at call sites — S → "stk" for `.dbU.insStk(.stk=S, …)` —
// so an API-level Call can be rendered back into IDL call syntax.
// Clauses that disagree on a variable's attribute keep the first
// mapping seen.
func (p *Program) ParamAttrs() map[string]string {
	out := map[string]string{}
	for _, c := range p.Clauses {
		if c.params == nil {
			continue
		}
		for _, conj := range c.params.Conjuncts {
			a, ok := conj.(*ast.AttrExpr)
			if !ok || a.Expr == nil {
				continue
			}
			k, ok := a.Name.(ast.Const)
			if !ok {
				continue
			}
			attr, ok := k.Value.(object.Str)
			if !ok {
				continue
			}
			for _, v := range ast.Vars(a.Expr) {
				if _, seen := out[v]; !seen {
					out[v] = string(attr)
				}
			}
		}
	}
	return out
}

// programKey identifies a callable program.
type programKey struct {
	db   string
	name string
}

// programRegistry stores callable programs and view updaters.
type programRegistry struct {
	programs map[programKey]*Program
	order    []programKey
	// View updaters, in registration order; matched by (db, rel, sign).
	viewUpdaters []*compiledClause
	// srcs is every registered clause — callable and view updater — in
	// global registration order, for checkpointing and replay.
	srcs []*ast.Clause
}

func newProgramRegistry() *programRegistry {
	return &programRegistry{programs: make(map[programKey]*Program)}
}

// compileClause validates and classifies a clause head:
//
//	.dbU.delStk(.stk=S, .date=D) -> …   callable program (no sign)
//	.dbX.p+(exp) -> …                   view updater for inserts into p
//	.dbO.S-(exp) -> …                   view updater for deletes, any rel
func compileClause(c *ast.Clause) (*compiledClause, error) {
	if c.Head == nil || len(c.Head.Conjuncts) != 1 {
		return nil, fmt.Errorf("core: clause head must be a single path expression")
	}
	dbAttr, ok := c.Head.Conjuncts[0].(*ast.AttrExpr)
	if !ok || dbAttr.Sign != ast.SignNone {
		return nil, fmt.Errorf("core: clause head must start with an unsigned database attribute")
	}
	dbConst, ok := dbAttr.Name.(ast.Const)
	if !ok {
		return nil, fmt.Errorf("core: clause head database name must be a constant")
	}
	dbStr, ok := dbConst.Value.(object.Str)
	if !ok {
		return nil, fmt.Errorf("core: clause head database name must be a string")
	}
	inner, ok := dbAttr.Expr.(*ast.TupleExpr)
	if !ok || len(inner.Conjuncts) != 1 {
		return nil, fmt.Errorf("core: clause head must be .db.name(params)")
	}
	nameAttr, ok := inner.Conjuncts[0].(*ast.AttrExpr)
	if !ok || nameAttr.Sign != ast.SignNone {
		return nil, fmt.Errorf("core: clause head must be .db.name(params)")
	}
	cc := &compiledClause{src: c, db: string(dbStr), relTerm: nameAttr.Name}
	// Parameter list and sign.
	switch pexpr := nameAttr.Expr.(type) {
	case *ast.SetExpr:
		cc.sign = pexpr.Sign
		switch inner := pexpr.X.(type) {
		case *ast.TupleExpr:
			cc.params = inner
		case ast.Epsilon:
			cc.params = &ast.TupleExpr{}
		case *ast.AttrExpr:
			cc.params = &ast.TupleExpr{Conjuncts: []ast.Expr{inner}}
		default:
			return nil, fmt.Errorf("core: clause head parameters must be a conjunct list")
		}
	case ast.Epsilon:
		cc.params = &ast.TupleExpr{}
	default:
		return nil, fmt.Errorf("core: clause head must end with a parameter list or nothing")
	}
	if cc.sign == ast.SignNone {
		nameConst, ok := nameAttr.Name.(ast.Const)
		if !ok {
			return nil, fmt.Errorf("core: callable program name must be a constant")
		}
		nameStr, ok := nameConst.Value.(object.Str)
		if !ok {
			return nil, fmt.Errorf("core: callable program name must be a string")
		}
		cc.name = string(nameStr)
	}
	// Parameter variables: every variable in the head.
	cc.paramVars = ast.Vars(c.Head)
	// Validate the parameter list: `.attr = Var` or `.attr = const` only.
	for _, pc := range cc.params.Conjuncts {
		a, ok := pc.(*ast.AttrExpr)
		if !ok || a.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: clause parameter %q must be an unsigned attribute equality", pc.String())
		}
		if at, ok := a.Expr.(*ast.Atomic); !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: clause parameter %q must be an equality", pc.String())
		}
	}
	cc.required = requiredParams(cc)
	cc.an = resolveUnit(cc.paramVars, c.Body, false)
	return cc, nil
}

// requiredParams computes the clause's binding signature: head parameters
// that feed a `+` expression in the body and are not produced by any
// unsigned query conjunct of the body (§7.1's insStk analysis).
func requiredParams(cc *compiledClause) []string {
	paramSet := map[string]bool{}
	for _, v := range cc.paramVars {
		paramSet[v] = true
	}
	plus := map[string]bool{}
	produced := map[string]bool{}
	for _, conjunct := range cc.src.Body.Conjuncts {
		if !ast.HasUpdate(conjunct) {
			// Query conjunct: its `=Var` atomics and var attribute names
			// can produce bindings.
			ast.Walk(conjunct, func(e ast.Expr) bool {
				switch x := e.(type) {
				case *ast.Atomic:
					if x.Op == ast.OpEQ {
						if v, ok := x.Term.(ast.Var); ok {
							produced[v.Name] = true
						}
					}
				case *ast.AttrExpr:
					if v, ok := x.Name.(ast.Var); ok {
						produced[v.Name] = true
					}
				}
				return true
			})
			continue
		}
		// Update conjunct: collect variables inside plus-signed regions.
		collectPlusVars(conjunct, false, plus)
	}
	var out []string
	for _, v := range cc.paramVars {
		if plus[v] && !produced[v] {
			out = append(out, v)
		}
	}
	return out
}

// collectPlusVars gathers every variable occurring under a plus sign.
func collectPlusVars(e ast.Expr, underPlus bool, out map[string]bool) {
	switch x := e.(type) {
	case *ast.Not:
		collectPlusVars(x.X, underPlus, out)
	case *ast.Atomic:
		if underPlus || x.Sign == ast.SignPlus {
			for _, v := range termVarNames(x.Term) {
				out[v] = true
			}
		}
	case *ast.AttrExpr:
		p := underPlus || x.Sign == ast.SignPlus
		if p {
			for _, v := range termVarNames(x.Name) {
				out[v] = true
			}
		}
		collectPlusVars(x.Expr, p, out)
	case *ast.TupleExpr:
		for _, c := range x.Conjuncts {
			collectPlusVars(c, underPlus, out)
		}
	case *ast.SetExpr:
		collectPlusVars(x.X, underPlus || x.Sign == ast.SignPlus, out)
	}
}

// add registers a compiled clause.
func (r *programRegistry) add(cc *compiledClause) {
	r.srcs = append(r.srcs, cc.src)
	if cc.sign != ast.SignNone {
		r.viewUpdaters = append(r.viewUpdaters, cc)
		return
	}
	key := programKey{db: cc.db, name: cc.name}
	p, ok := r.programs[key]
	if !ok {
		p = &Program{DB: cc.db, Name: cc.name}
		r.programs[key] = p
		r.order = append(r.order, key)
	}
	p.Clauses = append(p.Clauses, cc)
}

// lookup finds a callable program.
func (r *programRegistry) lookup(db, name string) (*Program, bool) {
	p, ok := r.programs[programKey{db: db, name: name}]
	return p, ok
}

// lookupViewUpdater finds the first registered view updater matching a
// (db, rel, sign) target.
func (r *programRegistry) lookupViewUpdater(db, rel string, sign ast.Sign) (*compiledClause, bool) {
	for _, cc := range r.viewUpdaters {
		if cc.db != db || cc.sign != sign {
			continue
		}
		switch t := cc.relTerm.(type) {
		case ast.Const:
			if s, ok := t.Value.(object.Str); ok && string(s) == rel {
				return cc, true
			}
		case ast.Var:
			return cc, true
		}
	}
	return nil, false
}

// All returns the callable programs in registration order.
func (r *programRegistry) All() []*Program {
	out := make([]*Program, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.programs[k])
	}
	return out
}

// ---------------------------------------------------------------------------
// Call-site matching

// bindCallParams matches a ground call parameter list against a clause's
// declared parameters, producing the invocation substitution. Call
// parameters not declared by the clause are an error; declared parameters
// the call omits stay unbound (wildcards).
func bindCallParams(cc *compiledClause, callParams *ast.TupleExpr, callerEnv *Env) (map[string]object.Object, error) {
	declared := map[string]ast.Term{} // attr name -> head term
	for _, pc := range cc.params.Conjuncts {
		a := pc.(*ast.AttrExpr)
		name, err := constName(a.Name)
		if err != nil {
			return nil, err
		}
		declared[name] = a.Expr.(*ast.Atomic).Term
	}
	out := map[string]object.Object{}
	for _, pc := range callParams.Conjuncts {
		a, ok := pc.(*ast.AttrExpr)
		if !ok || a.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: call argument %q must be an unsigned attribute equality", pc.String())
		}
		name, err := constName(a.Name)
		if err != nil {
			return nil, err
		}
		headTerm, ok := declared[name]
		if !ok {
			return nil, fmt.Errorf("core: program has no parameter %q", name)
		}
		at, ok := a.Expr.(*ast.Atomic)
		if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: call argument %q must be an equality", pc.String())
		}
		if _, isWild := singleUnboundVar(at.Term, callerEnv); isWild {
			// An unbound caller variable passes the parameter through as
			// omitted — wildcards cascade when programs reuse programs
			// (the paper's delStk-without-date pattern, §7.1).
			continue
		}
		val, err := evalTerm(at.Term, callerEnv)
		if err != nil {
			return nil, fmt.Errorf("core: call argument %q: %w", pc.String(), err)
		}
		switch ht := headTerm.(type) {
		case ast.Var:
			if prev, dup := out[ht.Name]; dup && !prev.Equal(val) {
				return nil, fmt.Errorf("core: conflicting bindings for parameter variable %s", ht.Name)
			}
			out[ht.Name] = val
		case ast.Const:
			if !ht.Value.Equal(val) {
				return nil, fmt.Errorf("core: argument %q does not match head constant %s", name, ht.Value)
			}
		}
	}
	return out, nil
}

func constName(t ast.Term) (string, error) {
	c, ok := t.(ast.Const)
	if !ok {
		return "", fmt.Errorf("core: parameter attribute names must be constants")
	}
	s, ok := c.Value.(object.Str)
	if !ok {
		return "", fmt.Errorf("core: parameter attribute name %s is not a string", c.Value)
	}
	return string(s), nil
}

// matchViewUpdate unifies a view updater's head against a user's update
// expression on the view: `.dbO.S+(.date=D,.clsPrice=P)` against
// `.dbO.hp+(.date=3/3/85,.clsPrice=50)` binds S, D, P. The user's
// expression must be ground under callerEnv; attributes the head does not
// declare are an error; declared head attributes the user omits leave
// their variables unbound.
func matchViewUpdate(cc *compiledClause, rel string, userInner ast.Expr, callerEnv *Env) (map[string]object.Object, error) {
	out := map[string]object.Object{}
	if v, ok := cc.relTerm.(ast.Var); ok {
		out[v.Name] = object.Str(rel)
	}
	var userParams *ast.TupleExpr
	switch inner := userInner.(type) {
	case *ast.TupleExpr:
		userParams = inner
	case ast.Epsilon:
		userParams = &ast.TupleExpr{}
	case *ast.AttrExpr:
		userParams = &ast.TupleExpr{Conjuncts: []ast.Expr{inner}}
	default:
		return nil, fmt.Errorf("core: view update expression must be a conjunct list")
	}
	declared := map[string]ast.Term{}
	for _, pc := range cc.params.Conjuncts {
		a := pc.(*ast.AttrExpr)
		name, err := constName(a.Name)
		if err != nil {
			return nil, err
		}
		declared[name] = a.Expr.(*ast.Atomic).Term
	}
	for _, pc := range userParams.Conjuncts {
		a, ok := pc.(*ast.AttrExpr)
		if !ok || a.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: view update component %q must be an unsigned attribute equality", pc.String())
		}
		name, err := constName(a.Name)
		if err != nil {
			return nil, err
		}
		headTerm, ok := declared[name]
		if !ok {
			return nil, fmt.Errorf("core: view update program for this view declares no attribute %q", name)
		}
		at, ok := a.Expr.(*ast.Atomic)
		if !ok || at.Op != ast.OpEQ || at.Sign != ast.SignNone {
			return nil, fmt.Errorf("core: view update component %q must be an equality", pc.String())
		}
		if _, isWild := singleUnboundVar(at.Term, callerEnv); isWild {
			// Unbound component: pass through as omitted (wildcard
			// cascade; see bindCallParams).
			continue
		}
		val, err := evalTerm(at.Term, callerEnv)
		if err != nil {
			return nil, fmt.Errorf("core: view update component %q: %w", pc.String(), err)
		}
		switch ht := headTerm.(type) {
		case ast.Var:
			if prev, dup := out[ht.Name]; dup && !prev.Equal(val) {
				return nil, fmt.Errorf("core: conflicting bindings for view parameter %s", ht.Name)
			}
			out[ht.Name] = val
		case ast.Const:
			if !ht.Value.Equal(val) {
				return nil, fmt.Errorf("core: view update component %q does not match head constant %s", name, ht.Value)
			}
		}
	}
	return out, nil
}
