package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/obs"
)

// The view engine (DESIGN.md §21). One loop refreshes the derived
// overlay, stratum by stratum: each round evaluates the rules its change
// reaches against the overlay as the round found it, then applies their
// row changes. A successful update request or program call records, at
// the points where the updater mutates sets, the net per-relation change
// it made — elements added (Δ⁺) and removed (Δ⁻). The next refresh runs
// only that change through the rules: each affected rule's body is
// evaluated with the one reference that reads a changed relation bound
// to the changed elements, which yields the head rows the rule gains
// and the candidates it may lose; a candidate is lost when the body no
// longer derives it from the new universe. Rows map to decrees whose
// support — the number of live rule rows decreeing them — is kept beside
// the overlay; a decree joins its key group when its support appears and
// leaves it when the support reaches zero, each touched group is folded
// again (decree.go), and the derived elements that change become the
// change the rules above read.
//
// A full refresh is the same loop from the empty overlay with every rule
// affected: each runs in full against an empty row table. It happens only
// for a change the updater did not capture (UpdateBase, catalog DDL,
// member installs, Invalidate, rule registration, a rolled-back request,
// a burst past pendingDelta's cap) and after a failed refresh. A
// recursive stratum repeats its rounds on the change its previous round
// derived until a round derives none — tuple-level semi-naive evaluation,
// bounded by Options.MaxIterations. Support counts are not sound across a
// cycle, so a change that may cost a recursive stratum anything (mayLose)
// first retracts every row of its rules and re-derives it from empty.

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
	// rows holds every rule's live head rows and targets every derived
	// relation's decrees; nil before the first refresh and after a
	// failed one, which makes the next refresh start from empty.
	rows    map[*compiledRule]*rowTable
	targets map[relKey]*viewTarget
	d       decree // the builder every decree is filled into
	head    Env    // the substitution every head row is presented in
	fold    folder
}

// presented returns vs.head holding row, a rule's head variables, in
// slots 1… — the substitution the rule's head, resolved in its body's
// scope, reads. Slots past row keep whatever an earlier, wider rule's
// row left there; no head of a narrower rule reads them.
func (vs *viewState) presented(row []object.Object) *Env {
	if len(vs.head.vals) <= len(row) {
		vs.head.vals = make([]object.Object, 1+len(row))
	}
	copy(vs.head.vals[1:], row)
	return &vs.head
}

// rowTable is one rule's live head rows: a rowSet whose removed rows are
// marked dead (a row added again revives its slot) until dead ones
// outnumber the live.
type rowTable struct {
	rs    *rowSet
	dead  []bool // per row; rows past its end are live
	ndead int
}

func (t *rowTable) live(i int) bool { return i >= len(t.dead) || !t.dead[i] }

func (t *rowTable) find(row []object.Object) int {
	if t.rs == nil {
		return -1
	}
	return t.rs.find(row, hashRow(row))
}

func (t *rowTable) has(row []object.Object) bool {
	i := t.find(row)
	return i >= 0 && t.live(i)
}

// add keeps a copy of row unless an equal row is live.
func (t *rowTable) add(row []object.Object) bool {
	switch i := t.find(row); {
	case i < 0:
		if t.rs == nil {
			t.rs = newRowSet(len(row))
		}
		return t.rs.add(row)
	case t.live(i):
		return false
	default:
		t.dead[i] = false
		t.ndead--
		return true
	}
}

func (t *rowTable) remove(row []object.Object) bool {
	i := t.find(row)
	if i < 0 || !t.live(i) {
		return false
	}
	for len(t.dead) <= i {
		t.dead = append(t.dead, false)
	}
	t.dead[i] = true
	if t.ndead++; t.ndead > 32 && 2*t.ndead > t.rs.len() {
		live := newRowSet(t.rs.width)
		t.each(func(row []object.Object) { live.add(row) })
		*t = rowTable{rs: live}
	}
	return true
}

// each calls fn for every live row.
func (t *rowTable) each(fn func(row []object.Object)) {
	if t.rs == nil {
		return
	}
	for i := 0; i < t.rs.len(); i++ {
		if t.live(i) {
			fn(t.rs.row(i))
		}
	}
}

// derivedSet returns relation k of the derived overlay, ready to mutate
// (copy-on-write through version.go's barrier); with create, a missing
// relation (and database) is created empty, otherwise it is nil.
func (e *Engine) derivedSet(k relKey, create bool) *object.Set {
	dv, ok := e.derived.Get(k.db)
	if !ok {
		if !create {
			return nil
		}
		dv = object.NewTuple()
		e.derived.Put(k.db, dv)
	}
	dbt := dv.(*object.Tuple)
	rv, ok := dbt.Get(k.rel)
	if !ok {
		if !create {
			return nil
		}
		rv = object.NewSet()
		dbt.Put(k.rel, rv)
	}
	return e.cowSet(dbt, k.rel, rv.(*object.Set))
}

// dropDerivedSet removes an emptied relation (and its database, once
// empty) from the overlay: a refresh from empty never creates an empty
// one.
func (e *Engine) dropDerivedSet(k relKey) {
	dv, ok := e.derived.Get(k.db)
	if !ok {
		return
	}
	dbt := dv.(*object.Tuple)
	dbt.Delete(k.rel)
	if dbt.Len() == 0 {
		e.derived.Delete(k.db)
	}
}

// maintainer carries one refresh.
type maintainer struct {
	e      *Engine
	vs     *viewState
	ctx    context.Context
	full   bool
	all    map[relKey]*relDelta // every change so far: base, then derived (nil from empty)
	drive  map[relKey]*relDelta // the change the current round runs through the rules
	round  map[relKey]*relDelta // a recursive round's derived change, driving the next
	shrunk map[relKey]bool      // the derived relations that lost a support so far
	eff    *object.Tuple        // the effective universe, as maintained so far
	du     *object.Tuple        // eff plus the delta database
	// dirty and touched list the groups and targets the current round
	// changed, for settle.
	dirty   []*viewGroup
	touched []*viewTarget
	decrees []*object.Tuple
	stats   RecomputeStats
	eval    Stats
}

// refreshViews brings the derived overlay up to date: by the pending
// change when one was captured and the maintained state is intact,
// otherwise from the empty overlay. A non-nil span gets one child per
// round. An error leaves the overlay partially maintained; the caller
// then drops the state, so the next refresh starts from empty.
func (e *Engine) refreshViews(ctx context.Context, span *obs.Span) (RecomputeStats, error) {
	vs := &e.views
	m := &maintainer{e: e, vs: vs, ctx: ctx, shrunk: make(map[relKey]bool)}
	if vs.rows == nil || vs.pending.full {
		m.full = true
		e.derived = object.NewTuple()
		vs.rows = make(map[*compiledRule]*rowTable, len(e.rules))
		for _, r := range e.rules {
			vs.rows[r] = &rowTable{}
		}
		vs.targets = make(map[relKey]*viewTarget)
	} else {
		m.stats.Delta = true
		m.all = vs.pending.rels
		if len(m.all) == 0 {
			return m.stats, nil
		}
	}
	defer func() {
		e.addStats(m.eval)
		if e.em != nil {
			e.em.evalWork(m.eval)
		}
	}()
	m.eff = mergeUniverse(e.base, e.derived)
	for s, stratum := range e.strata {
		if err := m.stratum(s, stratum, span); err != nil {
			return m.stats, err
		}
	}
	return m.stats, nil
}

// stratum brings one stratum up to date: one round, or for a recursive
// stratum as many as it takes until a round derives no change.
func (m *maintainer) stratum(s int, rules []*compiledRule, span *obs.Span) error {
	recursive := rules[0].recursive
	all := m.full
	m.drive = m.all
	if !all && recursive && m.mayLose(rules) {
		if err := m.reset(rules); err != nil {
			return err
		}
		all = true
	}
	var affected []*compiledRule
	for round := 0; ; round++ {
		affected = affected[:0]
		for _, r := range rules {
			if all || m.affects(r) {
				affected = append(affected, r)
			}
		}
		if len(affected) == 0 {
			return nil
		}
		if round >= m.e.opts.MaxIterations {
			return fmt.Errorf("core: view materialization exceeded %d iterations (non-terminating rule set?)", m.e.opts.MaxIterations)
		}
		if m.ctx != nil {
			if err := m.ctx.Err(); err != nil {
				return err
			}
		}
		m.stats.Iterations++
		var sp *obs.Span
		if span != nil {
			sp = span.Child(fmt.Sprintf("stratum%d.round%d", s, round))
		}
		runs, facts := m.stats.RuleRuns, m.stats.FactsDerived
		m.round = nil
		if recursive {
			m.round = make(map[relKey]*relDelta)
		}
		err := m.apply(affected, all)
		if sp != nil {
			sp.SetInt("rule_runs", int64(m.stats.RuleRuns-runs))
			sp.SetInt("facts", int64(m.stats.FactsDerived-facts))
			sp.End()
		}
		if err != nil || !recursive {
			return err
		}
		m.drive, all = m.round, false
	}
}

// apply runs one round: every affected rule's row changes, computed
// against the universe as the round found it, then applied in rule
// order — retractions first, so a request that replaces a fact (delete
// the old price, insert the new) never holds both — and the touched
// groups folded.
func (m *maintainer) apply(affected []*compiledRule, all bool) error {
	gained := make([][][]object.Object, len(affected))
	lost := make([][][]object.Object, len(affected))
	for i, r := range affected {
		m.stats.RuleRuns++
		var err error
		if all {
			gained[i], lost[i], err = m.rerun(r)
		} else {
			gained[i], lost[i], err = m.ruleDelta(r)
		}
		if err != nil {
			return &ruleError{rule: r.src.String(), err: err}
		}
	}
	for i, r := range affected {
		for _, row := range lost[i] {
			if err := m.retract(r, row); err != nil {
				return err
			}
		}
	}
	for i, r := range affected {
		for _, row := range gained[i] {
			if err := m.place(r, row); err != nil {
				return &ruleError{rule: r.src.String(), err: err}
			}
		}
	}
	m.settle()
	return nil
}

// ruleError names the rule a refresh failed in, in front of the error
// that stopped it, under one package prefix: "core: rule …: attribute
// variable …", not "core: rule …: core: attribute variable …".
type ruleError struct {
	rule string
	err  error
}

func (e *ruleError) Error() string {
	return fmt.Sprintf("core: rule %q: %s", e.rule, strings.TrimPrefix(e.err.Error(), "core: "))
}

func (e *ruleError) Unwrap() error { return e.err }

// mayLose reports whether the change so far may cost a stratum a row or a
// support: a Δ⁻ reaching any read, any change reaching a read that is not
// a delta read (a Δ⁺ under negation, say), or a support retracted in a
// relation a rule may derive.
func (m *maintainer) mayLose(rules []*compiledRule) bool {
	for _, r := range rules {
		for k := range m.shrunk {
			if r.target.mayTarget(k) {
				return true
			}
		}
		for i := range r.reads {
			rd := &r.reads[i]
			for k, d := range m.all {
				if (d.minus.Len() > 0 || rd.body == nil && d.plus.Len() > 0) && rd.matches(k) {
					return true
				}
			}
		}
	}
	return false
}

// reset retracts every row of a stratum's rules, leaving their tables
// empty for the stratum to be derived again from scratch.
func (m *maintainer) reset(rules []*compiledRule) error {
	for _, r := range rules {
		old := m.vs.rows[r]
		m.vs.rows[r] = &rowTable{}
		var rows [][]object.Object
		old.each(func(row []object.Object) { rows = append(rows, row) })
		for _, row := range rows {
			if err := m.retract(r, row); err != nil {
				return err
			}
		}
	}
	m.settle()
	return nil
}

// matches reports whether a read pattern may reach relation k.
func (rd *ruleRead) matches(k relKey) bool {
	return termsUnify(rd.db, ast.Const{Value: object.Str(k.db)}) &&
		termsUnify(rd.rel, ast.Const{Value: object.Str(k.rel)})
}

// reaches reports whether read rd may reach a relation the round's
// change touches.
func (m *maintainer) reaches(rd *ruleRead) bool {
	for k, d := range m.drive {
		if !d.empty() && rd.matches(k) {
			return true
		}
	}
	return false
}

// affects reports whether r reads any relation the round's change
// touches.
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
	table := m.vs.rows[r]
	via := -1
	for i := range r.reads {
		rd := &r.reads[i]
		if !m.reaches(rd) {
			continue
		}
		if via >= 0 || rd.body == nil {
			return m.rerun(r)
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
	var check *bodyAnalysis
	for i := 0; i < minus.len(); i++ {
		row := minus.row(i)
		if !table.has(row) || plus.find(row, hashRow(row)) >= 0 {
			continue // never held, or derived from an added element
		}
		if check == nil {
			check = m.headBound(r, row)
		}
		still, err := m.derivable(check, row)
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
	for k, d := range m.drive {
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
	rv := readView{eff: m.du, opts: m.e.opts, em: m.e.em}
	rv.opts.Workers = 0 // a delta is small
	return m.collect(m.e.ranked(rd.body, m.du, nil), rv)
}

// rerun evaluates r's body in full and diffs its rows against r's table,
// which it then replaces: against an empty table, every row is gained.
func (m *maintainer) rerun(r *compiledRule) (gained, lost [][]object.Object, err error) {
	rows, err := m.collect(m.e.ranked(r.body, m.eff, nil), readView{eff: m.eff, opts: m.e.opts, em: m.e.em})
	if err != nil {
		return nil, nil, err
	}
	table := m.vs.rows[r]
	table.each(func(row []object.Object) {
		if rows.find(row, hashRow(row)) < 0 {
			lost = append(lost, row)
		}
	})
	if table.rs == nil {
		gained = make([][]object.Object, 0, rows.len())
	}
	for i := 0; i < rows.len(); i++ {
		if row := rows.row(i); !table.has(row) {
			gained = append(gained, row)
		}
	}
	*table = rowTable{rs: rows}
	return gained, lost, nil
}

// collect runs a rule body; the rows' order is the same at every worker
// count.
func (m *maintainer) collect(an *bodyAnalysis, rv readView) (*rowSet, error) {
	rows, err := m.e.collect(m.ctx, an, rv, &m.eval, nil, 0)
	m.stats.RuleRows += rows.len()
	return rows, err
}

// headBound compiles r's body for derivable: ranked against the new
// universe, and scheduled for an entry that binds the head variables row
// binds. Every head row of one rule binds the same ones, and the
// universe holds still while a rule's lost rows are checked, so one
// compilation serves them all.
func (m *maintainer) headBound(r *compiledRule, row []object.Object) *bodyAnalysis {
	entry := make([]bool, 1+len(row))
	for i, v := range row {
		entry[1+i] = v != nil
	}
	return m.e.ranked(r.body, m.eff, entry)
}

// derivable reports whether a rule's body, compiled by headBound, still
// derives row from the new universe: the body evaluated with the head
// variables bound.
func (m *maintainer) derivable(an *bodyAnalysis, row []object.Object) (bool, error) {
	m.stats.RuleRows++
	ev := newEvaluator(m.ctx, an, m.e.opts, &m.eval)
	seed := make([]object.Object, an.sc.size())
	copy(seed[1:], row)
	ev.env.load(seed)
	return ev.exists(an.body, m.eff)
}

// record notes a derived element change for the rules that read it.
func (m *maintainer) record(k relKey, elem object.Object, added bool) {
	m.stats.FactsDerived++
	for _, changes := range [2]map[relKey]*relDelta{m.all, m.round} {
		if changes == nil {
			continue
		}
		d := changes[k]
		if d == nil {
			d = &relDelta{plus: object.NewSet(), minus: object.NewSet()}
			changes[k] = d
		}
		d.change(elem, added)
	}
}

// target returns derived relation k's decree state.
func (m *maintainer) target(k relKey) *viewTarget {
	vt := m.vs.targets[k]
	if vt == nil {
		key := m.e.targetKey(k)
		vt = &viewTarget{k: k, key: key, sites: make([]object.Site, len(key)), supports: make(map[uint64]*support), groups: make(map[uint64]*viewGroup)}
		m.vs.targets[k] = vt
	}
	return vt
}

func (m *maintainer) touch(vt *viewTarget) {
	if !vt.touched {
		vt.touched = true
		m.touched = append(m.touched, vt)
	}
}

func (m *maintainer) markDirty(g *viewGroup) {
	if !g.dirty {
		g.dirty = true
		m.dirty = append(m.dirty, g)
	}
}

// place adds one support to the decree r makes true under row. A new
// tuple decree joins its key group, folded again at the end of the
// round; any other decree is a member of the relation outright.
func (m *maintainer) place(r *compiledRule, row []object.Object) error {
	d := &m.vs.d
	k, err := r.target.decree(d, m.vs.presented(row))
	if err != nil {
		return err
	}
	vt := m.target(k)
	h := d.hash()
	if s := vt.find(d, h); s != nil {
		s.n++
		return nil
	}
	m.stats.DecreeCandidates++
	s := &support{decree: d.object(), hash: h, n: 1}
	vt.add(s)
	tup, ok := s.decree.(*object.Tuple)
	if !ok {
		if set := m.e.derivedSet(k, true); set.Add(s.decree) {
			m.record(k, s.decree, true)
		}
		return nil
	}
	g := vt.group(tup)
	g.members = append(g.members, s)
	s.group = g
	m.markDirty(g)
	return nil
}

// retract drops one support of the decree r makes true under row. A
// decree left without support leaves its group, folded again at the end
// of the round, or the relation.
func (m *maintainer) retract(r *compiledRule, row []object.Object) error {
	d := &m.vs.d
	k, err := r.target.decree(d, m.vs.presented(row))
	if err != nil {
		return err
	}
	vt := m.vs.targets[k]
	var s *support
	if vt != nil {
		s = vt.find(d, d.hash())
	}
	if s == nil {
		return fmt.Errorf("core: view state holds no support for a decree of rule %q", r.src.String())
	}
	m.shrunk[k] = true
	if s.n--; s.n > 0 {
		return nil
	}
	m.stats.DecreeCandidates++
	vt.drop(s)
	if g := s.group; g != nil {
		g.members = slices.DeleteFunc(g.members, func(o *support) bool { return o == s })
		m.stats.DecreeCandidates += len(g.members)
		m.markDirty(g)
	} else if set := m.e.derivedSet(k, false); set.Remove(s.decree) {
		m.record(k, s.decree, false)
	}
	m.touch(vt)
	return nil
}

// settle folds every group the round touched and writes the elements
// that changed into the overlay; a relation left empty goes.
func (m *maintainer) settle() {
	for _, g := range m.dirty {
		g.dirty = false
		vt := g.target
		m.decrees = m.decrees[:0]
		for _, s := range g.members {
			m.decrees = append(m.decrees, s.decree.(*object.Tuple))
		}
		var next []*object.Tuple
		if len(m.decrees) > 0 {
			next = m.vs.fold.fold(m.decrees, g.elems)
		}
		if set := m.e.derivedSet(vt.k, len(next) > 0); set != nil {
			missing(g.elems, next, func(old *object.Tuple) {
				set.Remove(old)
				m.record(vt.k, old, false)
			})
			missing(next, g.elems, func(el *object.Tuple) {
				set.Add(el)
				m.record(vt.k, el, true)
			})
		}
		g.elems = append(g.elems[:0], next...)
		if len(g.members) == 0 {
			vt.dropGroup(g)
		}
		m.touch(vt)
	}
	m.dirty = m.dirty[:0]
	for _, vt := range m.touched {
		vt.touched = false
		if len(vt.supports) == 0 {
			m.e.dropDerivedSet(vt.k)
			delete(m.vs.targets, vt.k)
		}
	}
	m.touched = m.touched[:0]
	m.eff, m.du = mergeUniverse(m.e.base, m.e.derived), nil
}

// missing calls fn, in a's order, for every element of a not in b.
func missing(a, b []*object.Tuple, fn func(*object.Tuple)) {
	if len(a)*len(b) <= 256 {
		for _, x := range a {
			if !slices.Contains(b, x) {
				fn(x)
			}
		}
		return
	}
	in := make(map[*object.Tuple]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			fn(x)
		}
	}
}
