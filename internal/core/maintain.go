package core

import (
	"context"
	"errors"
	"slices"

	"idl/internal/ast"
	"idl/internal/object"
)

// View maintenance by delta (DESIGN.md §21). A successful update request
// or program call records, at the points where the updater mutates sets,
// the net per-relation change it made — elements added and removed. The
// next refresh runs only that change through the rules: each affected
// rule's body is evaluated with the one reference that reads a changed
// relation bound to the added (Δ⁺) or removed (Δ⁻) elements, which
// yields the head rows the rule gains and the candidates it may lose; a
// candidate is lost when the body no longer derives it from the new
// universe. Rows map to decrees whose support — the number of live rule
// rows decreeing them — is kept beside the overlay: a decree is placed
// when its support appears and retracted when it reaches zero, and the
// derived elements that change become the next stratum's delta.
//
// Make-true merges decrees into hosts (decree.go), so a derived set's
// contents can depend on the order its decrees arrive in. They do not
// when every decree in the set carries a key — the constant attribute
// names every head feeding the set decrees — and the decrees sharing key
// values are pairwise compatible: each key group then folds into one
// element, the union of its decrees, in any order. That is the invariant
// the maintained state checks; a placement or retraction it cannot
// decide that way (a conflict inside a group, a decree missing a key
// attribute), a recursive stratum the change reaches, a head that is not
// `.db.rel+(…)`, an error, or a change the updater did not capture
// (UpdateBase, catalog DDL, member installs, Invalidate, rule
// registration, a rolled-back request) falls back to the full
// recomputation, which rebuilds the state the next delta refresh needs.

// deltaDB names the database a delta pass binds the changed elements to.
// No parsed name can carry a NUL.
const deltaDB = "\x00delta"

// relKey names one relation of the universe.
type relKey struct{ db, rel string }

// relDelta is one relation's net change: an element both added and
// removed since the last refresh cancels out.
type relDelta struct {
	plus, minus *object.Set
	size        int // the largest size the relation reached meanwhile
}

func (d *relDelta) empty() bool { return d.plus.Len() == 0 && d.minus.Len() == 0 }

// change records elem added or removed and returns the change in the
// number of pending elements.
func (d *relDelta) change(elem object.Object, added bool) int {
	from, to := d.minus, d.plus
	if !added {
		from, to = d.plus, d.minus
	}
	if from.Remove(elem) {
		return -1
	}
	if to.Add(elem) {
		return 1
	}
	return 0
}

// pendingDelta accumulates the captured changes since the last refresh.
// Once it holds more than twice as many elements as the relations it
// touches (rewriting every element of a relation counts each twice:
// removed, then added) — a long burst of writes with no read between,
// such as a WAL replay — it stops accumulating and the next refresh
// recomputes from scratch.
type pendingDelta struct {
	full  bool // an uncaptured change happened: recompute from scratch
	rels  map[relKey]*relDelta
	elems int // pending elements, over all relations
	sizes int // Σ relDelta.size
}

// invalidate forces the next refresh to recompute from scratch.
func (p *pendingDelta) invalidate() {
	p.full, p.rels = true, nil
}

// rel returns k's delta, noting that the relation reached size.
func (p *pendingDelta) rel(k relKey, size int) *relDelta {
	if p.rels == nil {
		p.rels = make(map[relKey]*relDelta)
	}
	d := p.rels[k]
	if d == nil {
		d = &relDelta{plus: object.NewSet(), minus: object.NewSet()}
		p.rels[k] = d
	}
	if size > d.size {
		p.sizes += size - d.size
		d.size = size
	}
	return d
}

// change records elem added to (or removed from) relation k, whose size
// is now size.
func (p *pendingDelta) change(k relKey, elem object.Object, added bool, size int) {
	if p.full {
		return
	}
	if !added {
		size++ // the relation held elem a moment ago
	}
	p.elems += p.rel(k, size).change(elem, added)
	if p.elems > 2*p.sizes {
		p.invalidate()
	}
}

// replaceRel records relation k replaced wholesale (created, reset or
// dropped: old or new nil): every old element removed, every new one
// added. A relation that is not a set has no elements to track.
func (p *pendingDelta) replaceRel(k relKey, old, new object.Object) {
	for _, o := range []object.Object{old, new} {
		if o == nil {
			continue
		}
		set, ok := o.(*object.Set)
		if !ok {
			p.invalidate()
			return
		}
		added := o == new
		for _, elem := range set.Elems() {
			p.change(k, elem, added, set.Len())
		}
	}
}

// replaceDB records database db replaced wholesale.
func (p *pendingDelta) replaceDB(db string, old, new object.Object) {
	for _, o := range []object.Object{old, new} {
		if o == nil {
			continue
		}
		tup, ok := o.(*object.Tuple)
		if !ok {
			p.invalidate()
			return
		}
		tup.Each(func(rel string, v object.Object) bool {
			if o == old {
				p.replaceRel(relKey{db, rel}, v, nil)
			} else {
				p.replaceRel(relKey{db, rel}, nil, v)
			}
			return !p.full
		})
	}
}

// viewState is what the engine keeps beside the derived overlay to
// maintain it by delta.
type viewState struct {
	pending pendingDelta
	// runs holds every rule's head rows from the last full
	// materialization, until the first delta refresh indexes them into
	// rows and targets (both nil until then).
	runs    map[*compiledRule]*rowSet
	rows    map[*compiledRule]*rowTable
	targets map[relKey]*viewTarget
}

// reset drops the maintained state, keeping a full materialization's
// rule rows (nil after a failed one) for the next delta refresh to index.
func (vs *viewState) reset(runs map[*compiledRule]*rowSet) {
	vs.runs, vs.rows, vs.targets = runs, nil, nil
}

// rowTable is one rule's live head rows.
type rowTable struct{ rows map[uint64][][]object.Object }

func (t *rowTable) find(row []object.Object, h uint64) int {
	for i, r := range t.rows[h] {
		if rowsEqual(r, row) {
			return i
		}
	}
	return -1
}

func (t *rowTable) has(row []object.Object) bool { return t.find(row, hashRow(row)) >= 0 }

// add keeps row (callers hand over rows that stay immutable) unless an
// equal row is present.
func (t *rowTable) add(row []object.Object) bool {
	h := hashRow(row)
	if t.find(row, h) >= 0 {
		return false
	}
	t.rows[h] = append(t.rows[h], row)
	return true
}

func (t *rowTable) remove(row []object.Object) bool {
	h := hashRow(row)
	i := t.find(row, h)
	if i < 0 {
		return false
	}
	b := t.rows[h]
	b[i] = b[len(b)-1]
	if len(b) == 1 {
		delete(t.rows, h)
	} else {
		t.rows[h] = b[:len(b)-1]
	}
	return true
}

// viewTarget is one derived relation's decrees with their support.
// Tuple decrees are grouped by their values of key, the attributes every
// tuple decree placed here carries; each group owns one element of the
// relation, the union of its decrees.
type viewTarget struct {
	key      []string
	supports map[uint64][]*support
	groups   map[uint64][]*viewGroup
}

// support is one decree and the number of live rule rows decreeing it.
type support struct {
	decree object.Object
	n      int
	group  *viewGroup // tuple decrees
}

type viewGroup struct {
	vals    []object.Object // the key values
	members []*support
	elem    *object.Tuple
}

func newViewTarget(key []string) *viewTarget {
	return &viewTarget{key: key, supports: make(map[uint64][]*support), groups: make(map[uint64][]*viewGroup)}
}

// support returns d's support record, creating a zero one when create.
func (t *viewTarget) support(d object.Object, create bool) *support {
	h := d.Hash()
	for _, s := range t.supports[h] {
		if s.decree.Equal(d) {
			return s
		}
	}
	if !create {
		return nil
	}
	s := &support{decree: d}
	t.supports[h] = append(t.supports[h], s)
	return s
}

func (t *viewTarget) dropSupport(s *support) {
	h := s.decree.Hash()
	t.supports[h] = removePtr(t.supports[h], s)
	if len(t.supports[h]) == 0 {
		delete(t.supports, h)
	}
}

// group returns the group of tup's key values (creating it when create),
// or ok=false when tup lacks a key attribute.
func (t *viewTarget) group(tup *object.Tuple, create bool) (g *viewGroup, ok bool) {
	vals := make([]object.Object, len(t.key))
	for i, a := range t.key {
		if vals[i], ok = tup.Get(a); !ok {
			return nil, false
		}
	}
	h := hashRow(vals)
	for _, g := range t.groups[h] {
		if rowsEqual(g.vals, vals) {
			return g, true
		}
	}
	if create {
		g = &viewGroup{vals: vals}
		t.groups[h] = append(t.groups[h], g)
	}
	return g, true
}

func (t *viewTarget) dropGroup(g *viewGroup) {
	h := hashRow(g.vals)
	t.groups[h] = removePtr(t.groups[h], g)
	if len(t.groups[h]) == 0 {
		delete(t.groups, h)
	}
}

func removePtr[T comparable](s []T, x T) []T {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// commonAttrs returns the attributes of key also in other, in key order:
// a relation fed by several heads is keyed by what they all decree.
func commonAttrs(key, other []string) []string {
	var out []string
	for _, a := range key {
		if slices.Contains(other, a) {
			out = append(out, a)
		}
	}
	return out
}

// errFallback aborts a delta refresh: the change needs a full
// recomputation (it is never returned to callers).
var errFallback = errors.New("core: view delta needs a full recomputation")

// buildViewState indexes the last full materialization's rule rows into
// live row tables and decree supports, and binds every key group to its
// element of the overlay. It fails (errFallback) when the overlay holds
// a group with more than one element — a conflict whose from-scratch
// result depends on decree order.
func (e *Engine) buildViewState() error {
	vs := &e.views
	if vs.runs == nil {
		return errFallback
	}
	vs.rows = make(map[*compiledRule]*rowTable, len(e.rules))
	vs.targets = make(map[relKey]*viewTarget)
	for _, r := range e.rules {
		if r.target == nil {
			return errFallback
		}
		fed := make(map[relKey]bool) // the targets r has fed so far
		t := &rowTable{rows: make(map[uint64][][]object.Object)}
		vs.rows[r] = t
		rs := vs.runs[r]
		if rs == nil {
			return errFallback
		}
		for i := 0; i < rs.len(); i++ {
			row := rs.row(i)
			t.add(row)
			k, d, err := r.decree(row)
			if err != nil {
				return errFallback
			}
			vt := vs.targets[k]
			if vt == nil {
				vt = newViewTarget(r.target.constAttrs())
				vs.targets[k] = vt
			} else if !fed[k] {
				vt.key = commonAttrs(vt.key, r.target.constAttrs())
			}
			fed[k] = true
			vt.support(d, true).n++
		}
	}
	vs.runs = nil
	for k, vt := range vs.targets {
		for _, b := range vt.supports {
			for _, s := range b {
				tup, ok := s.decree.(*object.Tuple)
				if !ok {
					continue
				}
				g, ok := vt.group(tup, true)
				if !ok {
					return errFallback
				}
				g.members = append(g.members, s)
				s.group = g
			}
		}
		set, err := e.derivedSet(k, false)
		if err != nil || set == nil {
			return errFallback
		}
		var failed bool
		set.Each(func(el object.Object) bool {
			tup, ok := el.(*object.Tuple)
			if !ok {
				return true
			}
			g, _ := vt.group(tup, false)
			if g == nil || g.elem != nil {
				failed = true // an element of no group, or a second one: a conflict
				return false
			}
			g.elem = tup
			return true
		})
		if failed {
			return errFallback
		}
		for _, b := range vt.groups {
			for _, g := range b {
				if g.elem == nil {
					return errFallback // a group without its element: not a make-true result
				}
			}
		}
	}
	return nil
}

// derivedSet returns relation k of the derived overlay, ready to mutate
// (copy-on-write through version.go's barrier); with create, a missing
// relation (and database) is created empty, otherwise it is nil.
func (e *Engine) derivedSet(k relKey, create bool) (*object.Set, error) {
	dv, ok := e.derived.Get(k.db)
	if !ok {
		if !create {
			return nil, nil
		}
		dv = object.NewTuple()
		e.derived.Put(k.db, dv)
	}
	dbt, ok := dv.(*object.Tuple)
	if !ok {
		return nil, errFallback
	}
	rv, ok := dbt.Get(k.rel)
	if !ok {
		if !create {
			return nil, nil
		}
		rv = object.NewSet()
		dbt.Put(k.rel, rv)
	}
	set, ok := rv.(*object.Set)
	if !ok {
		return nil, errFallback
	}
	return e.cowSet(dbt, k.rel, set), nil
}

// dropDerivedSet removes an emptied relation (and its database, once
// empty) from the overlay: a from-scratch materialization never creates
// an empty one.
func (e *Engine) dropDerivedSet(k relKey) {
	dv, _ := e.derived.Get(k.db)
	dbt := dv.(*object.Tuple)
	dbt.Delete(k.rel)
	if dbt.Len() == 0 {
		e.derived.Delete(k.db)
	}
}

// maintainer carries one delta refresh.
type maintainer struct {
	e       *Engine
	ctx     context.Context
	changed map[relKey]*relDelta // base changes, then each stratum's derived ones
	eff     *object.Tuple        // the effective universe, as maintained so far
	du      *object.Tuple        // eff plus the delta database
	stats   RecomputeStats
	eval    Stats
}

// refreshByDelta brings the overlay up to date with the pending change.
// errFallback (or any error) leaves the overlay partially maintained:
// the caller then recomputes it from scratch.
func (e *Engine) refreshByDelta(ctx context.Context) (RecomputeStats, error) {
	m := &maintainer{e: e, ctx: ctx, changed: e.views.pending.rels, eff: mergeUniverse(e.base, e.derived)}
	m.stats.Delta = true
	defer func() {
		e.addStats(m.eval)
		if e.em != nil {
			e.em.evalWork(m.eval)
		}
	}()
	if len(m.changed) == 0 {
		return m.stats, nil
	}
	if e.views.rows == nil {
		if err := e.buildViewState(); err != nil {
			return m.stats, err
		}
	}
	for _, stratum := range e.strata {
		var affected []*compiledRule
		for _, r := range stratum {
			if m.affects(r) {
				affected = append(affected, r)
			}
		}
		if len(affected) == 0 {
			continue
		}
		if stratum[0].recursive {
			return m.stats, errFallback
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return m.stats, err
			}
		}
		m.stats.Iterations++
		gained := make([][][]object.Object, len(affected))
		lost := make([][][]object.Object, len(affected))
		for i, r := range affected {
			m.stats.RuleRuns++
			var err error
			if gained[i], lost[i], err = m.ruleDelta(r); err != nil {
				return m.stats, err
			}
		}
		// Retractions first: a request that replaces a fact (delete the
		// old price, insert the new) must not look like a conflict.
		for i, r := range affected {
			for _, row := range lost[i] {
				if err := m.retract(r, row); err != nil {
					return m.stats, err
				}
			}
		}
		for i, r := range affected {
			for _, row := range gained[i] {
				if err := m.place(r, row); err != nil {
					return m.stats, err
				}
			}
		}
		m.eff, m.du = mergeUniverse(e.base, e.derived), nil
	}
	return m.stats, nil
}

// matches reports whether a read pattern may reach relation k.
func (rd *ruleRead) matches(k relKey) bool {
	return termsUnify(rd.db, ast.Const{Value: object.Str(k.db)}) &&
		termsUnify(rd.rel, ast.Const{Value: object.Str(k.rel)})
}

// reaches reports whether read rd may reach a changed relation.
func (m *maintainer) reaches(rd *ruleRead) bool {
	for k, d := range m.changed {
		if !d.empty() && rd.matches(k) {
			return true
		}
	}
	return false
}

// affects reports whether r reads any changed relation.
func (m *maintainer) affects(r *compiledRule) bool {
	for i := range r.reads {
		if m.reaches(&r.reads[i]) {
			return true
		}
	}
	return false
}

// ruleDelta returns the head rows r gains and loses, updating its row
// table. A rule whose one changed read is a plain relation reference
// runs on the delta alone; any other affected rule (a changed relation
// read twice, under negation, or by a shape the delta database cannot
// stand in for) re-runs in full against the new universe and diffs its
// rows.
func (m *maintainer) ruleDelta(r *compiledRule) (gained, lost [][]object.Object, err error) {
	table := m.e.views.rows[r]
	via := -1
	for i := range r.reads {
		rd := &r.reads[i]
		if !m.reaches(rd) {
			continue
		}
		if via >= 0 || rd.body == nil {
			return m.rerun(r, table)
		}
		via = i
	}
	rd := &r.reads[via]
	plus, err := m.pass(r, rd, true)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < plus.len(); i++ {
		if row := plus.row(i); table.add(row) {
			gained = append(gained, row)
		}
	}
	minus, err := m.pass(r, rd, false)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < minus.len(); i++ {
		row := minus.row(i)
		if !table.has(row) || plus.find(row, hashRow(row)) >= 0 {
			continue // never held, or derived from an added element
		}
		still, err := m.derivable(r, row)
		if err != nil {
			return nil, nil, err
		}
		if !still {
			table.remove(row)
			lost = append(lost, row)
		}
	}
	return gained, lost, nil
}

// pass evaluates r's body with read rd bound to the added (or removed)
// elements of every changed relation it may reach, and the rest of the
// body against the new universe — which, for the rest, is also the old
// one: no other read of r reaches a changed relation.
func (m *maintainer) pass(r *compiledRule, rd *ruleRead, added bool) (*rowSet, error) {
	delta := object.NewTuple()
	for k, d := range m.changed {
		if k.db != rd.dbName || !rd.matches(k) {
			continue
		}
		s := d.minus
		if added {
			s = d.plus
		}
		if s.Len() > 0 {
			delta.Put(k.rel, s)
		}
	}
	if delta.Len() == 0 {
		return newRowSet(len(r.headVars)), nil
	}
	if m.du == nil {
		m.du = object.NewTupleCap(m.eff.Len() + 1)
		m.eff.Each(func(db string, v object.Object) bool {
			m.du.Put(db, v)
			return true
		})
	}
	m.du.Put(deltaDB, delta)
	return m.collect(m.e.ranked(rd.body, m.du, nil), m.du)
}

// rerun evaluates r's body in full and diffs its rows against table.
func (m *maintainer) rerun(r *compiledRule, table *rowTable) (gained, lost [][]object.Object, err error) {
	rows, err := m.collect(m.e.ranked(r.body, m.eff, nil), m.eff)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range table.rows {
		for _, row := range b {
			if rows.find(row, hashRow(row)) < 0 {
				lost = append(lost, row)
			}
		}
	}
	for _, row := range lost {
		table.remove(row)
	}
	for i := 0; i < rows.len(); i++ {
		if row := rows.row(i); table.add(row) {
			gained = append(gained, row)
		}
	}
	return gained, lost, nil
}

// collect runs a rule body sequentially: a delta is small, and the rows'
// order only has to be deterministic, not the full run's.
func (m *maintainer) collect(an *bodyAnalysis, eff *object.Tuple) (*rowSet, error) {
	rv := readView{eff: eff, opts: m.e.opts, em: m.e.em}
	rv.opts.Workers = 0
	rows, err := m.e.collect(m.ctx, an, rv, &m.eval, nil)
	m.stats.RuleRows += rows.len()
	return rows, err
}

// derivable reports whether r's body still derives row from the new
// universe: the body evaluated with the head variables bound.
func (m *maintainer) derivable(r *compiledRule, row []object.Object) (bool, error) {
	m.stats.RuleRows++
	an := m.e.ranked(r.body, m.eff, nil)
	ev := newEvaluator(m.ctx, an, m.e.indexes, m.e.opts, &m.eval)
	seed := make([]object.Object, an.sc.size())
	copy(seed[1:], row)
	ev.env.load(seed)
	return ev.exists(an.body, m.eff)
}

// record notes a derived element change for the strata above.
func (m *maintainer) record(k relKey, elem object.Object, added bool) {
	d := m.changed[k]
	if d == nil {
		d = &relDelta{plus: object.NewSet(), minus: object.NewSet()}
		m.changed[k] = d
	}
	d.change(elem, added)
	m.stats.FactsDerived++
}

// replace swaps a group's element for its new union (nil: none left).
func (m *maintainer) replace(k relKey, set *object.Set, g *viewGroup, next *object.Tuple) error {
	if g.elem != nil {
		set.Remove(g.elem)
		m.record(k, g.elem, false)
	}
	if next != nil {
		if !set.Add(next) {
			return errFallback
		}
		m.record(k, next, true)
	}
	g.elem = next
	return nil
}

// place adds one support to the decree r makes true under row, placing
// the decree when it is the first.
func (m *maintainer) place(r *compiledRule, row []object.Object) error {
	k, d, err := r.decree(row)
	if err != nil {
		return err
	}
	vs := &m.e.views
	vt := vs.targets[k]
	if vt == nil {
		vt = newViewTarget(r.target.constAttrs())
		vs.targets[k] = vt
	}
	s := vt.support(d, true)
	if s.n++; s.n > 1 {
		return nil
	}
	m.stats.DecreeCandidates++
	set, err := m.e.derivedSet(k, true)
	if err != nil {
		return err
	}
	tup, ok := d.(*object.Tuple)
	if !ok {
		if set.Add(d) {
			m.record(k, d, true)
		}
		return nil
	}
	g, ok := vt.group(tup, true)
	if !ok {
		return errFallback // the decree lacks a key attribute
	}
	g.members = append(g.members, s)
	s.group = g
	if g.elem == nil {
		return m.replace(k, set, g, tup)
	}
	subsumes, compatible := matchAttrs(tup.Attrs(), tup.Values(), g.elem)
	switch {
	case subsumes:
		return nil
	case !compatible:
		return errFallback // a conflict: the from-scratch result depends on order
	}
	merged := object.NewTupleCap(g.elem.Len() + tup.Len())
	g.elem.Each(func(a string, v object.Object) bool { merged.Put(a, v); return true })
	tup.Each(func(a string, v object.Object) bool {
		if !merged.Has(a) {
			merged.Put(a, v)
		}
		return true
	})
	return m.replace(k, set, g, merged)
}

// retract drops one support of the decree r makes true under row,
// retracting the decree when none is left: its group's element loses
// the attributes no remaining member decrees.
func (m *maintainer) retract(r *compiledRule, row []object.Object) error {
	k, d, err := r.decree(row)
	if err != nil {
		return err
	}
	vt := m.e.views.targets[k]
	if vt == nil {
		return errFallback
	}
	s := vt.support(d, false)
	if s == nil {
		return errFallback
	}
	if s.n--; s.n > 0 {
		return nil
	}
	vt.dropSupport(s)
	set, err := m.e.derivedSet(k, false)
	if err != nil || set == nil {
		return errFallback
	}
	m.stats.DecreeCandidates++
	if g := s.group; g == nil {
		if set.Remove(d) {
			m.record(k, d, false)
		}
	} else {
		g.members = removePtr(g.members, s)
		var next *object.Tuple
		if len(g.members) == 0 {
			vt.dropGroup(g)
		} else {
			m.stats.DecreeCandidates += len(g.members)
			next = g.elem
			d.(*object.Tuple).Each(func(a string, _ object.Object) bool {
				for _, o := range g.members {
					if o.decree.(*object.Tuple).Has(a) {
						return true
					}
				}
				if next == g.elem {
					next = g.elem.Clone().(*object.Tuple)
				}
				next.Delete(a)
				return true
			})
		}
		if next != g.elem {
			if err := m.replace(k, set, g, next); err != nil {
				return err
			}
		}
	}
	if set.Len() == 0 {
		m.e.dropDerivedSet(k)
		delete(m.e.views.targets, k)
	}
	return nil
}
