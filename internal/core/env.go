// Package core implements the IDL evaluation engine: higher-order query
// expressions (paper §4), update expressions (§5), higher-order views with
// stratified materialization (§6), and update programs with view
// updatability (§7).
package core

import (
	"slices"
	"strconv"

	"idl/internal/federation"
	"idl/internal/object"
)

// Env is a substitution (paper §4.2) over one compiled unit's scope
// (slots.go): the object bound to each variable slot, nil while unbound,
// extended and retracted as the evaluator backtracks. The trail records
// bind order so enumeration can undo extensions cheaply.
type Env struct {
	vals  []object.Object
	trail []int32
}

// newEnv returns an empty substitution over a scope of the given size.
func newEnv(size int) *Env {
	return &Env{vals: make([]object.Object, size), trail: make([]int32, 0, size)}
}

// Lookup returns the binding of a slot, if any.
func (e *Env) Lookup(slot int32) (object.Object, bool) {
	v := e.vals[slot]
	return v, v != nil
}

// Bound reports whether a slot is bound.
func (e *Env) Bound(slot int32) bool { return e.vals[slot] != nil }

// Bind binds a slot to val. The variable must be resolved and unbound;
// enumerators guarantee the latter by checking Lookup first.
func (e *Env) Bind(slot int32, val object.Object) {
	if slot == 0 {
		panic("core: Bind of an unresolved variable")
	}
	if e.vals[slot] != nil {
		panic("core: Bind of an already-bound variable")
	}
	e.vals[slot] = val
	e.trail = append(e.trail, slot)
}

// Mark returns the current trail position, for use with Undo.
func (e *Env) Mark() int { return len(e.trail) }

// Undo retracts every binding made since mark.
func (e *Env) Undo(mark int) {
	for _, slot := range e.trail[mark:] {
		e.vals[slot] = nil
	}
	e.trail = e.trail[:mark]
}

// window is the substitution restricted to its first width variables —
// a unit's output row, since scopes number output variables first. It
// aliases the live substitution: copy before retaining.
func (e *Env) window(width int) []object.Object { return e.vals[1 : 1+width] }

// all is the whole substitution as a row (reserved slot included, so a
// row index is a slot).
func (e *Env) all() []object.Object { return e.vals }

// load replaces the substitution with a row captured by all. Bindings
// loaded this way are permanent for the env's owner: marks start above
// them.
func (e *Env) load(row []object.Object) {
	copy(e.vals, row)
	e.trail = e.trail[:0]
}

// extend binds every slot that row binds and the substitution does not —
// re-entering a substitution captured (by all) as an extension of the
// current one. Undo to a mark taken before retracts it.
func (e *Env) extend(row []object.Object) {
	for slot, v := range row {
		if v != nil && e.vals[slot] == nil {
			e.Bind(int32(slot), v)
		}
	}
}

// ---------------------------------------------------------------------------
// Answers

// Row is one answer substitution: a read-only positional view of the
// values bound to the answer's variables, with access by name.
type Row struct {
	vars []string
	vals []object.Object
}

// RowOf builds a row from alternating variable-name / value pairs
// (values converted like object.TupleOf), for Answer.Contains.
func RowOf(pairs ...any) Row {
	t := object.TupleOf(pairs...)
	return Row{vars: t.Attrs(), vals: t.Values()}
}

// At returns the value at position i, nil when the variable is unbound.
func (r Row) At(i int) object.Object { return r.vals[i] }

// Get returns the value bound to the named variable, nil when the row
// leaves it unbound or has no such variable.
func (r Row) Get(name string) object.Object {
	for i, v := range r.vars {
		if v == name {
			return r.vals[i]
		}
	}
	return nil
}

// appendRow renders one line of Answer.String: values rendered by value
// and separated by tab, `_` for unbound.
func appendRow(dst []byte, vals []object.Object, tab string, value func([]byte, object.Object) []byte) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, tab...)
		}
		if v == nil {
			dst = append(dst, '_')
		} else {
			dst = value(dst, v)
		}
	}
	return dst
}

// Answer is the result of a query: the set of grounding substitutions for
// its free variables (paper §4.2). A query with no variables has an empty
// Vars list and Bool carries the truth value.
type Answer struct {
	Vars []string // free variables in first-occurrence order

	// Degraded, when non-nil, reports that the answer was computed
	// best-effort against a federation with unreachable members: which
	// members failed and which conjuncts were skipped. nil for single-site
	// queries and fully healthy federations in fail-fast mode.
	Degraded *federation.Report

	// Plan, when non-nil, reports how the query was planned: whether the
	// compiled plan ran with no plan work ("hit"), was re-ranked after an
	// epoch move and its order held ("stale"), was compiled fresh
	// ("miss"), or bypassed the cache ("cold"), plus compile time when a
	// compile happened. Every
	// read runs a plan, so it is set on every answer a query returns.
	Plan *PlanInfo

	// Resources is this query's resource-accounting record: the evaluator
	// work it consumed (scans, probes, enumerations), the rows it emitted,
	// and the fixpoint rounds of any view rematerialization it triggered.
	// Deterministic at every worker count.
	Resources Resources

	// rows holds the deduplicated satisfying substitutions positionally
	// over Vars, in first-derived order; order, when non-nil, is the
	// permutation Sort installed.
	rows  *rowSet
	order []int32
}

func newAnswer(vars []string) *Answer {
	return &Answer{Vars: vars, rows: newRowSet(len(vars))}
}

// Bool reports the truth value: for variable-free queries, whether the
// query was satisfied; otherwise whether any row exists.
func (a *Answer) Bool() bool { return a.rows.len() > 0 }

// Len returns the number of distinct answer rows.
func (a *Answer) Len() int { return a.rows.len() }

// vals returns the i-th row's values in the answer's current order.
func (a *Answer) vals(i int) []object.Object {
	if a.order != nil {
		i = int(a.order[i])
	}
	return a.rows.row(i)
}

// Row returns the i-th row: first-derived order, or canonical order
// after Sort.
func (a *Answer) Row(i int) Row { return Row{vars: a.Vars, vals: a.vals(i)} }

// Rows returns every row, in the order Row indexes them.
func (a *Answer) Rows() []Row {
	out := make([]Row, a.Len())
	for i := range out {
		out[i] = a.Row(i)
	}
	return out
}

// Contains reports whether the answer includes a row binding exactly the
// variables want binds, to equal values.
func (a *Answer) Contains(want Row) bool {
	probe := make([]object.Object, len(a.Vars))
	bound := 0
	for i, v := range a.Vars {
		if probe[i] = want.Get(v); probe[i] != nil {
			bound++
		}
	}
	for _, v := range want.vals {
		if v != nil {
			bound--
		}
	}
	return bound == 0 && a.rows.find(probe, hashRow(probe)) >= 0
}

// position returns the index of a variable in Vars, or -1.
func (a *Answer) position(name string) int { return slices.Index(a.Vars, name) }

// Column returns the values of one variable across all rows, in row
// order, skipping rows that leave it unbound.
func (a *Answer) Column(name string) []object.Object {
	p := a.position(name)
	if p < 0 {
		return []object.Object{}
	}
	out := make([]object.Object, 0, a.Len())
	for i := 0; i < a.Len(); i++ {
		if v := a.vals(i)[p]; v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Project returns a new answer restricted to the given variables,
// deduplicating rows that become equal under the narrower view (the
// "structure to the answer" the paper alludes to in §4.2).
func (a *Answer) Project(vars ...string) *Answer {
	out := newAnswer(vars)
	pos := make([]int, len(vars))
	for i, v := range vars {
		pos[i] = a.position(v)
	}
	p := make([]object.Object, len(vars))
	for i := 0; i < a.Len(); i++ {
		row := a.vals(i)
		for j, at := range pos {
			p[j] = nil
			if at >= 0 {
				p[j] = row[at]
			}
		}
		out.rows.add(p)
	}
	return out
}

// String renders the answer as a small table: a header of variable names
// and one line per row, canonically ordered. Variable-free answers render
// as "true"/"false".
func (a *Answer) String() string {
	if len(a.Vars) == 0 {
		return strconv.FormatBool(a.Bool())
	}
	return string(a.AppendText(make([]byte, 0, 8*(a.Len()+1)*len(a.Vars))))
}

// AppendText appends String's rendering to dst.
func (a *Answer) AppendText(dst []byte) []byte {
	return a.render(dst, "\t", "\n", object.AppendString, nil)
}

// AppendJSON appends String's rendering escaped for the inside of a JSON
// string, byte for byte as encoding/json escapes it (object.EscapeJSON):
// the one render with tab and newline written as their escapes, and only
// the values that can need it scanned.
func (a *Answer) AppendJSON(dst []byte) []byte {
	return a.render(dst, `\t`, `\n`, object.AppendJSON, object.EscapeJSON)
}

// render writes the table with the given separators and value renderer;
// escape, when non-nil, rewrites each header name appended from an
// offset.
func (a *Answer) render(dst []byte, tab, nl string, value func([]byte, object.Object) []byte, escape func([]byte, int) []byte) []byte {
	if len(a.Vars) == 0 {
		return strconv.AppendBool(dst, a.Bool())
	}
	for i, v := range a.Vars {
		if i > 0 {
			dst = append(dst, tab...)
		}
		from := len(dst)
		if dst = append(dst, v...); escape != nil {
			dst = escape(dst, from)
		}
	}
	s := sortPool.Get().(*sortScratch)
	s.perm = a.sortInto(s.perm[:0], s)
	for _, i := range s.perm {
		dst = append(dst, nl...)
		dst = appendRow(dst, a.rows.row(int(i)), tab, value)
	}
	sortPool.Put(s)
	return dst
}
