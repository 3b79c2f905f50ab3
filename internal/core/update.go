package core

import (
	"errors"
	"fmt"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// ExecResult tallies the effects of an update request.
type ExecResult struct {
	ElemsInserted int // set elements added
	ElemsDeleted  int // set elements removed
	AttrsCreated  int // tuple attributes created or reset
	AttrsDeleted  int // tuple attributes deleted
	ValuesSet     int // atomic values replaced (incl. nulled)
	Bindings      int // substitutions the request's query parts produced

	// Resources is the request's resource-accounting record (scans,
	// probes, fixpoint rounds triggered); TuplesEmitted carries Bindings.
	Resources Resources
}

func (r *ExecResult) total() int {
	return r.ElemsInserted + r.ElemsDeleted + r.AttrsCreated + r.AttrsDeleted + r.ValuesSet
}

// Changed reports whether the request mutated anything.
func (r *ExecResult) Changed() bool { return r.total() > 0 }

// InsertUnboundError reports a `+` expression evaluated with an unbound
// variable — the condition the paper's insStk discussion flags: "if any of
// the arguments is not given then the plus expressions are not defined"
// (§7.1).
type InsertUnboundError struct {
	Var  string
	Expr ast.Expr
}

func (e *InsertUnboundError) Error() string {
	return fmt.Sprintf("insert expression %q is undefined: variable %s is unbound", e.Expr.String(), e.Var)
}

// undoLog records inverse mutations; rollback applies them in reverse.
type undoLog struct {
	entries []func()
}

func (u *undoLog) record(fn func()) { u.entries = append(u.entries, fn) }

func (u *undoLog) rollback() {
	for i := len(u.entries) - 1; i >= 0; i-- {
		u.entries[i]()
	}
	u.entries = nil
}

// updater executes update requests (§5.2). Query parts locate targets and
// bind variables; signed parts mutate. All mutations are journaled so a
// failing request rolls back completely (requests are atomic).
type updater struct {
	ev     *evaluator
	undo   *undoLog
	result *ExecResult
	// cow is the engine's copy-on-write barrier (version.go): called
	// before navigating into a set a snapshot may share (a frozen set),
	// it returns the writer-private set to mutate (cloning and
	// re-parenting it if needed, with rollback recorded).
	cow func(parent *object.Tuple, attr string, s *object.Set) *object.Set
	// span is the current position in the traced update call tree (nil
	// when tracing is off); program invocations hang children off it.
	span *obs.Span
	// delta, when non-nil, receives the request's per-relation changes
	// for view maintenance (maintain.go). path is the attribute path from
	// the universe root to the object being updated; detached counts the
	// element clones being rewritten (execSetElements), whose nested
	// changes are captured whole, as the element's removal and re-add.
	delta    *pendingDelta
	path     []string
	detached int
}

// depth is the universe depth of the object being updated (the root is
// 0), or -1 inside an element clone.
func (u *updater) depth() int {
	if u.detached > 0 {
		return -1
	}
	return len(u.path)
}

// replaced captures a changed attribute of the tuple at depth: a whole
// database (depth 0) or relation (depth 1) replaced, created or dropped.
// A change deeper down, outside any set, is not an element delta: the
// next refresh recomputes from scratch.
func (u *updater) replaced(depth int, attr string, old, new object.Object) {
	if u.delta == nil || depth < 0 {
		return
	}
	switch depth {
	case 0:
		u.delta.replaceDB(attr, old, new)
	case 1:
		u.delta.replaceRel(relKey{u.path[0], attr}, old, new)
	default:
		u.delta.invalidate()
	}
}

// setChanged captures elem added to (or removed from) the set at the
// updater's path. Only relation sets carry element deltas.
func (u *updater) setChanged(set *object.Set, elem object.Object, added bool) {
	if u.delta == nil || u.detached > 0 {
		return
	}
	if len(u.path) != 2 {
		u.delta.invalidate()
		return
	}
	u.delta.change(relKey{u.path[0], u.path[1]}, elem, added, set.Len())
}

// validateUpdateConjunct rejects update signs under negation and inside
// constraints — neither has defined semantics.
func validateUpdateConjunct(e ast.Expr) error {
	var err error
	ast.Walk(e, func(node ast.Expr) bool {
		if n, ok := node.(*ast.Not); ok && ast.HasUpdate(n.X) {
			err = fmt.Errorf("core: update expression under negation: %q", n.String())
			return false
		}
		return true
	})
	return err
}

// slot is a writable location holding the object currently being updated,
// so atomic plus/minus can replace values in place.
type slot interface {
	set(u *updater, val object.Object)
	settable() bool
}

// noSlot is the root universe position — not replaceable.
type noSlot struct{}

func (noSlot) set(*updater, object.Object) { panic("core: set on root slot") }
func (noSlot) settable() bool              { return false }

// tupleSlot is a tuple attribute position; depth is the tuple's
// (updater.depth at the slot's creation).
type tupleSlot struct {
	tup   *object.Tuple
	attr  string
	depth int
}

func (s tupleSlot) settable() bool { return true }

func (s tupleSlot) set(u *updater, val object.Object) {
	old, had := s.tup.Get(s.attr)
	s.tup.Put(s.attr, val)
	u.replaced(s.depth, s.attr, old, val)
	u.undo.record(func() {
		if had {
			s.tup.Put(s.attr, old)
		} else {
			s.tup.Delete(s.attr)
		}
	})
}

// execUpdate applies an update expression (or navigates an unsigned
// expression containing updates) to obj.
func (u *updater) execUpdate(e ast.Expr, obj object.Object, sl slot) error {
	switch x := e.(type) {
	case *ast.AttrExpr:
		return u.execAttr(x, obj, sl)
	case *ast.TupleExpr:
		return u.execTupleConjuncts(x.Conjuncts, obj, sl)
	case *ast.SetExpr:
		return u.execSet(x, obj)
	case *ast.Atomic:
		return u.execAtomic(x, obj, sl)
	default:
		return fmt.Errorf("core: expression %q cannot appear in update position", e.String())
	}
}

// execAttr handles the three attribute-conjunct forms on a tuple object:
// navigation (sign none), tuple plus (create/reset attribute, §5.2), and
// tuple minus (delete attribute when its object satisfies the
// condition).
func (u *updater) execAttr(x *ast.AttrExpr, obj object.Object, sl slot) error {
	tup, ok := obj.(*object.Tuple)
	if !ok {
		return fmt.Errorf("core: attribute expression %q applied to %s object", x.String(), obj.Kind())
	}
	names, enumerated, err := u.resolveAttrNames(x, tup)
	if err != nil {
		return err
	}
	switch x.Sign {
	case ast.SignPlus:
		if enumerated {
			return &InsertUnboundError{Var: x.Name.(ast.Var).Name, Expr: x}
		}
		for _, name := range names {
			val, err := u.buildPlus(x.Expr)
			if err != nil {
				return err
			}
			tupleSlot{tup: tup, attr: name, depth: u.depth()}.set(u, val)
			u.result.AttrsCreated++
		}
		return nil

	case ast.SignMinus:
		for _, name := range names {
			val, ok := tup.Get(name)
			if !ok {
				continue
			}
			mark := u.ev.env.Mark()
			bindLocalName(u.ev.env, x.Name, name, enumerated)
			sat, err := u.ev.exists(x.Expr, val)
			u.ev.env.Undo(mark)
			if err != nil {
				return err
			}
			if !sat {
				continue
			}
			old, _ := tup.Get(name)
			tup.Delete(name)
			u.replaced(u.depth(), name, old, nil)
			nameCopy := name
			u.undo.record(func() { tup.Put(nameCopy, old) })
			u.result.AttrsDeleted++
		}
		return nil

	default: // navigation
		matched := false
		for _, name := range names {
			val, ok := tup.Get(name)
			if !ok {
				continue
			}
			// Navigating into a set with updates below will mutate it:
			// copy-on-write first if it is frozen. Tuples need no
			// barrier — snapshots carry private tuple skeletons.
			if s, isSet := val.(*object.Set); isSet {
				val = u.cow(tup, name, s)
			}
			matched = true
			mark := u.ev.env.Mark()
			bindLocalName(u.ev.env, x.Name, name, enumerated)
			err := u.descend(x.Expr, val, tupleSlot{tup: tup, attr: name, depth: u.depth()})
			u.ev.env.Undo(mark)
			if err != nil {
				return err
			}
		}
		if !matched && !enumerated {
			// Navigate-or-create: a purely additive nested update may
			// create the missing attribute — this is what lets the
			// paper's insStk clause `.ource.S+(…)` insert a stock whose
			// relation does not exist yet (§7.1). The universe root is
			// exempt: databases are created by DDL, not by navigation, so
			// a mistyped database name stays an error.
			if sl.settable() && purelyAdditive(x.Expr) {
				empty := emptyFor(x.Expr)
				if empty == nil {
					return fmt.Errorf("core: cannot infer object kind for %q", x.Expr.String())
				}
				sl := tupleSlot{tup: tup, attr: names[0], depth: u.depth()}
				sl.set(u, empty)
				u.result.AttrsCreated++
				return u.descend(x.Expr, empty, sl)
			}
			return fmt.Errorf("core: no attribute %q to update", names[0])
		}
		return nil
	}
}

// descend applies e to the value under sl's attribute, one level down the
// updater's path.
func (u *updater) descend(e ast.Expr, val object.Object, sl tupleSlot) error {
	u.path = append(u.path, sl.attr)
	err := u.execUpdate(e, val, sl)
	u.path = u.path[:len(u.path)-1]
	return err
}

// purelyAdditive reports whether every update sign in e is a plus and at
// least one is present — the condition under which navigation may create
// missing attributes on the way down.
func purelyAdditive(e ast.Expr) bool {
	plus, minus := false, false
	ast.Walk(e, func(node ast.Expr) bool {
		switch x := node.(type) {
		case *ast.Atomic:
			switch x.Sign {
			case ast.SignPlus:
				plus = true
			case ast.SignMinus:
				minus = true
			}
		case *ast.AttrExpr:
			switch x.Sign {
			case ast.SignPlus:
				plus = true
			case ast.SignMinus:
				minus = true
			}
		case *ast.SetExpr:
			switch x.Sign {
			case ast.SignPlus:
				plus = true
			case ast.SignMinus:
				minus = true
			}
		}
		return !minus
	})
	return plus && !minus
}

// resolveAttrNames determines which attribute(s) an AttrExpr addresses:
// a constant name, a bound variable's value, or — for an unbound variable
// — every attribute of the tuple (the paper's delStk-without-stock
// wildcard semantics, §7.1).
func (u *updater) resolveAttrNames(x *ast.AttrExpr, tup *object.Tuple) (names []string, enumerated bool, err error) {
	switch name := x.Name.(type) {
	case ast.Const:
		s, ok := name.Value.(object.Str)
		if !ok {
			return nil, false, fmt.Errorf("core: attribute name %s is not a string", name.Value)
		}
		return []string{string(s)}, false, nil
	case ast.Var:
		if bound, ok := u.ev.env.Lookup(name.Slot); ok {
			s, ok := bound.(object.Str)
			if !ok {
				return nil, false, fmt.Errorf("core: attribute variable %s bound to non-string %s", name.Name, bound)
			}
			return []string{string(s)}, false, nil
		}
		return append([]string(nil), tup.Attrs()...), true, nil
	default:
		return nil, false, fmt.Errorf("core: attribute name must be constant or variable")
	}
}

// bindLocalName binds an enumerated attribute variable for the duration
// of one attribute's processing.
func bindLocalName(env *Env, nameTerm ast.Term, name string, enumerated bool) {
	if !enumerated {
		return
	}
	if v, ok := nameTerm.(ast.Var); ok && !env.Bound(v.Slot) {
		env.Bind(v.Slot, object.Str(name))
	}
}

// execSet handles set plus (insert a new element made true by the inner
// expression), set minus (delete every element satisfying it), and
// navigation into elements for updates nested below.
func (u *updater) execSet(x *ast.SetExpr, obj object.Object) error {
	set, ok := obj.(*object.Set)
	if !ok {
		return fmt.Errorf("core: set expression %q applied to %s object", x.String(), obj.Kind())
	}
	switch x.Sign {
	case ast.SignPlus:
		elem, err := u.buildPlus(x.X)
		if err != nil {
			return err
		}
		if set.Add(elem) {
			u.undo.record(func() { set.Remove(elem) })
			u.result.ElemsInserted++
			u.setChanged(set, elem, true)
		}
		return nil

	case ast.SignMinus:
		var victims []object.Object
		var failure error
		set.Each(func(elem object.Object) bool {
			sat, err := u.ev.exists(x.X, elem)
			if err != nil {
				failure = err
				return false
			}
			if sat {
				victims = append(victims, elem)
			}
			return true
		})
		if failure != nil {
			return failure
		}
		for _, elem := range victims {
			if set.Remove(elem) {
				el := elem
				u.undo.record(func() { set.Add(el) })
				u.result.ElemsDeleted++
				u.setChanged(set, elem, false)
			}
		}
		return nil

	default: // navigation into elements carrying nested updates
		return u.execSetElements(x.X, set)
	}
}

// execTupleConjuncts handles a conjunct list containing updates applied
// to a tuple object (e.g. navigating `.ource-.S`, or a mixed list like
// `.date=D, -.hp=C` on one tuple): query conjuncts bind local
// substitutions against the tuple, then the update conjuncts apply under
// each.
func (u *updater) execTupleConjuncts(conjuncts []ast.Expr, obj object.Object, sl slot) error {
	queryParts, updateParts := splitTupleParts(conjuncts)
	locals, err := u.localSubstitutions(queryParts, obj)
	if err != nil {
		return err
	}
	return u.underEach(locals, func() error {
		for _, part := range updateParts {
			if err := u.execUpdate(part, obj, sl); err != nil {
				return err
			}
		}
		return nil
	})
}

// localSubstitutions collects the distinct extensions of the current
// substitution under which obj satisfies every query part — gathered in
// full before anything mutates.
func (u *updater) localSubstitutions(queryParts []ast.Expr, obj object.Object) (*rowSet, error) {
	env := u.ev.env
	locals := newRowSet(len(env.all()))
	err := u.satisfyAll(queryParts, obj, func() error {
		locals.add(env.all())
		return nil
	})
	return locals, err
}

// underEach runs apply once per local substitution, re-entering it on
// top of the current one and retracting it afterwards.
func (u *updater) underEach(locals *rowSet, apply func() error) error {
	env := u.ev.env
	mark := env.Mark()
	for i := 0; i < locals.len(); i++ {
		env.extend(locals.row(i))
		err := apply()
		env.Undo(mark)
		if err != nil {
			return err
		}
	}
	return nil
}

func splitTupleParts(conjuncts []ast.Expr) (queryParts, updateParts []ast.Expr) {
	for _, c := range conjuncts {
		if ast.HasUpdate(c) {
			updateParts = append(updateParts, c)
		} else {
			queryParts = append(queryParts, c)
		}
	}
	return queryParts, updateParts
}

// execSetElements applies an inner expression containing updates to every
// element it matches. For each element, the query parts of the inner
// conjunct list are matched first (binding local variables); the update
// parts then apply under each local substitution. The mutation lands on
// a deep clone of the element: the original is removed, the clone
// mutated and re-added — keeping the set's hash index coherent, merging
// any elements that became equal (set semantics), and, crucially for
// MVCC, never touching the original element, which readers of an older
// snapshot may still reach through a pre-COW copy of this set (set
// clones are shallow; elements are shared by pointer).
func (u *updater) execSetElements(inner ast.Expr, set *object.Set) error {
	queryParts, updateParts := splitParts(inner)
	for _, elem := range set.Elems() {
		// Collect the local substitutions before mutating.
		locals, err := u.localSubstitutions(queryParts, elem)
		if err != nil {
			return err
		}
		if locals.len() == 0 {
			continue
		}
		work := elem.Clone()
		set.Remove(elem)
		u.detached++
		err = u.underEach(locals, func() error {
			for _, part := range updateParts {
				if err := u.execUpdate(part, work, noSlot{}); err != nil {
					return err
				}
			}
			return nil
		})
		u.detached--
		if err != nil {
			set.Add(elem)
			return err
		}
		added := set.Add(work)
		u.setChanged(set, elem, false)
		if added {
			u.setChanged(set, work, true)
		}
		el, wk := elem, work
		u.undo.record(func() {
			if added {
				set.Remove(wk)
			}
			set.Add(el)
		})
	}
	return nil
}

// splitParts separates an inner expression into query conjuncts (no
// update signs) and update conjuncts, preserving order within each
// class. A non-conjunct inner expression with updates is a single update
// part applying to every element.
func splitParts(inner ast.Expr) (queryParts, updateParts []ast.Expr) {
	te, ok := inner.(*ast.TupleExpr)
	if !ok {
		if ast.HasUpdate(inner) {
			return nil, []ast.Expr{inner}
		}
		return []ast.Expr{inner}, nil
	}
	for _, c := range te.Conjuncts {
		if ast.HasUpdate(c) {
			updateParts = append(updateParts, c)
		} else {
			queryParts = append(queryParts, c)
		}
	}
	return queryParts, updateParts
}

// satisfyAll enumerates extensions satisfying every conjunct on obj.
func (u *updater) satisfyAll(conjuncts []ast.Expr, obj object.Object, k cont) error {
	if len(conjuncts) == 0 {
		return k()
	}
	return u.ev.satisfy(&ast.TupleExpr{Conjuncts: conjuncts}, obj, k)
}

// execAtomic handles `+=c` (replace the value, making `=c` true hence
// forth) and `-=c` (replace with null when the value satisfies `=c`). An
// unbound variable in `-=X` binds to the current value first, so
// `.hp-=C` nulls unconditionally while exporting nothing (§5.2).
func (u *updater) execAtomic(x *ast.Atomic, obj object.Object, sl slot) error {
	if !obj.Kind().IsAtomic() {
		return fmt.Errorf("core: atomic update %q applied to %s object", x.String(), obj.Kind())
	}
	if !sl.settable() {
		return fmt.Errorf("core: atomic update %q has no enclosing location", x.String())
	}
	switch x.Sign {
	case ast.SignPlus:
		val, err := evalTerm(x.Term, u.ev.env)
		if err != nil {
			return insertErrFrom(err, x)
		}
		sl.set(u, val)
		u.result.ValuesSet++
		return nil
	case ast.SignMinus:
		if _, ok := singleUnboundVar(x.Term, u.ev.env); ok {
			// Bind locally to the current value; null satisfies nothing,
			// so a null value stays null (no-op).
			if _, isNull := obj.(object.Null); isNull {
				return nil
			}
			sl.set(u, object.Null{})
			u.result.ValuesSet++
			return nil
		}
		val, err := evalTerm(x.Term, u.ev.env)
		if err != nil {
			return err
		}
		if compare(ast.OpEQ, obj, val) {
			sl.set(u, object.Null{})
			u.result.ValuesSet++
		}
		return nil
	default:
		return fmt.Errorf("core: unsigned atomic expression %q in update position", x.String())
	}
}

// buildPlus constructs the object a plus expression decrees into
// existence: the paper's "create an empty object and recursively evaluate
// +exp on it" (§5.2), with the sign propagating through the whole
// sub-expression. All terms must be ground.
func (u *updater) buildPlus(e ast.Expr) (object.Object, error) {
	switch x := e.(type) {
	case ast.Epsilon:
		// `+()` — an empty object; it concretizes as an empty tuple,
		// the common element shape for relations.
		return object.NewTuple(), nil
	case *ast.Atomic:
		if x.Op != ast.OpEQ {
			return nil, fmt.Errorf("core: insert requires simple expressions; %q is not", x.String())
		}
		val, err := evalTerm(x.Term, u.ev.env)
		if err != nil {
			return nil, insertErrFrom(err, x)
		}
		return cloneForStore(val), nil
	case *ast.AttrExpr:
		tup := object.NewTuple()
		if err := u.putPlusAttr(tup, x); err != nil {
			return nil, err
		}
		return tup, nil
	case *ast.TupleExpr:
		tup := object.NewTuple()
		for _, c := range x.Conjuncts {
			a, ok := c.(*ast.AttrExpr)
			if !ok {
				return nil, fmt.Errorf("core: insert requires attribute conjuncts; %q is not", c.String())
			}
			if err := u.putPlusAttr(tup, a); err != nil {
				return nil, err
			}
		}
		return tup, nil
	case *ast.SetExpr:
		s := object.NewSet()
		if _, isEps := x.X.(ast.Epsilon); !isEps {
			elem, err := u.buildPlus(x.X)
			if err != nil {
				return nil, err
			}
			s.Add(elem)
		}
		return s, nil
	default:
		return nil, fmt.Errorf("core: expression %q cannot be inserted", e.String())
	}
}

func (u *updater) putPlusAttr(tup *object.Tuple, a *ast.AttrExpr) error {
	if a.Sign == ast.SignMinus {
		return fmt.Errorf("core: minus expression %q inside an insert", a.String())
	}
	var name string
	switch n := a.Name.(type) {
	case ast.Const:
		s, ok := n.Value.(object.Str)
		if !ok {
			return fmt.Errorf("core: attribute name %s is not a string", n.Value)
		}
		name = string(s)
	case ast.Var:
		bound, ok := u.ev.env.Lookup(n.Slot)
		if !ok {
			return &InsertUnboundError{Var: n.Name, Expr: a}
		}
		s, ok := bound.(object.Str)
		if !ok {
			return fmt.Errorf("core: attribute variable %s bound to non-string %s", n.Name, bound)
		}
		name = string(s)
	default:
		return fmt.Errorf("core: attribute name must be constant or variable")
	}
	val, err := u.buildPlus(a.Expr)
	if err != nil {
		return err
	}
	tup.Put(name, val)
	return nil
}

// cloneForStore deep-copies aggregate values bound from elsewhere in the
// universe so an insert never aliases existing structures.
func cloneForStore(o object.Object) object.Object {
	if o.Kind().IsAtomic() {
		return o
	}
	return o.Clone()
}

func insertErrFrom(err error, e ast.Expr) error {
	var ub *unboundError
	if errors.As(err, &ub) {
		return &InsertUnboundError{Var: ub.Var, Expr: e}
	}
	return err
}
