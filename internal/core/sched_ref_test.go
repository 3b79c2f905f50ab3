package core

import (
	"errors"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	idlast "idl/internal/ast"
	"idl/internal/object"
	"idl/internal/stocks"
)

// The per-element scheduler step programs replaced, kept verbatim as the
// reference: a conjunct list owns a frame per evaluator, and every time
// evaluation enters or resumes it, pickConjunct picks the next conjunct
// from the live substitution's boundness, with the body's cost ranks at
// the top level and source order below. refEval runs a unit that way;
// the atoms (satisfyAtomic, satisfyConstraint), the index rule and the
// substitution are the production evaluator's, and so is everything a
// step program does not decide. The differential tests below demand the
// same raw rows, the same Stats and the same error text from both.

// refEval evaluates with the reference scheduler: every recursive node
// dispatches back to it, so no step program runs.
type refEval struct {
	*evaluator
	frames []tupleFrame
}

func newRefEval(ev *evaluator) *refEval {
	return &refEval{evaluator: ev, frames: make([]tupleFrame, len(ev.an.sc.tuples))}
}

func (ev *refEval) satisfy(e idlast.Expr, o object.Object, k cont) error {
	switch x := e.(type) {
	case idlast.Epsilon:
		return k()
	case *idlast.Not:
		sat, err := ev.exists(x.X, o)
		if err != nil {
			return err
		}
		if !sat {
			return k()
		}
		return nil
	case *idlast.Atomic:
		if x.Sign != idlast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfyAtomic(x, o, k)
	case *idlast.Constraint:
		return ev.satisfyConstraint(x, k)
	case *idlast.AttrExpr:
		if x.Sign != idlast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfyAttr(x, o, k)
	case *idlast.TupleExpr:
		return ev.satisfyTuple(x, o, k)
	case *idlast.SetExpr:
		if x.Sign != idlast.SignNone {
			return fmt.Errorf("core: update expression %q in query context", unlift(x, ev.env))
		}
		return ev.satisfySet(x, o, k)
	default:
		return fmt.Errorf("core: unknown expression type %T", e)
	}
}

func (ev *refEval) exists(e idlast.Expr, o object.Object) (bool, error) {
	mark := ev.env.Mark()
	err := ev.satisfy(e, o, func() error { return errStop })
	ev.env.Undo(mark)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errStop):
		return true, nil
	default:
		return false, err
	}
}

func (ev *refEval) satisfyAttr(x *idlast.AttrExpr, o object.Object, k cont) error {
	tup, ok := o.(*object.Tuple)
	if !ok {
		return nil
	}
	switch name := x.Name.(type) {
	case idlast.Const:
		s, ok := name.Value.(object.Str)
		if !ok {
			return nil
		}
		val, ok := tup.Lookup(&x.Site, string(s))
		if !ok {
			return nil
		}
		return ev.satisfy(x.Expr, val, k)
	case idlast.Var:
		if bound, ok := ev.env.Lookup(name.Slot); ok {
			s, ok := bound.(object.Str)
			if !ok {
				return nil
			}
			val, ok := tup.Get(string(s))
			if !ok {
				return nil
			}
			return ev.satisfy(x.Expr, val, k)
		}
		ev.stats.AttrEnums++
		names, vals := tup.Names(), tup.Values()
		for i, val := range vals {
			mark := ev.env.Mark()
			ev.env.Bind(name.Slot, names[i])
			err := ev.satisfy(x.Expr, val, k)
			ev.env.Undo(mark)
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: attribute name must be a constant or variable, got %T", x.Name)
	}
}

func (ev *refEval) satisfySet(x *idlast.SetExpr, o object.Object, k cont) error {
	set, ok := o.(*object.Set)
	if !ok {
		return nil
	}
	if ev.useIndex {
		if cands, ok := ev.indexCandidates(x, set); ok {
			ev.stats.IndexProbes++
			ev.stats.IndexCandidates += uint64(len(cands))
			for _, elem := range cands {
				if err := ev.checkCtx(); err != nil {
					return err
				}
				if err := ev.satisfy(x.X, elem, k); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var failure error
	set.Each(func(elem object.Object) bool {
		ev.stats.ElementsScanned++
		if err := ev.checkCtx(); err != nil {
			failure = err
			return false
		}
		if err := ev.satisfy(x.X, elem, k); err != nil {
			failure = err
			return false
		}
		return true
	})
	return failure
}

func (ev *refEval) satisfyTuple(x *idlast.TupleExpr, o object.Object, k cont) error {
	switch len(x.Conjuncts) {
	case 0:
		return k()
	case 1:
		if err := ev.checkCtx(); err != nil {
			return err
		}
		return ev.satisfy(x.Conjuncts[0], o, k)
	}
	f := ev.frameFor(x)
	f.o, f.k, f.left = o, k, len(x.Conjuncts)
	return f.step()
}

// tupleFrame is the scheduler state of one conjunct list: which conjuncts
// have run on the current path, the object and continuation of the
// current entry, and the step continuation handed to each conjunct.
type tupleFrame struct {
	ev       *refEval
	x        *idlast.TupleExpr
	consumed [][]int32
	ranks    []float64 // nil: source order
	used     []bool
	left     int
	o        object.Object
	k        cont
	next     cont // f.step, bound once
}

// frameFor returns x's frame, set up on first use. A list the unit's
// scope does not know gets a frame of its own.
func (ev *refEval) frameFor(x *idlast.TupleExpr) *tupleFrame {
	if x.ID == 0 {
		f := &tupleFrame{ev: ev, x: x, consumed: ev.an.sc.consumedSlots(x.Conjuncts), used: make([]bool, len(x.Conjuncts))}
		f.next = f.step
		return f
	}
	f := &ev.frames[x.ID]
	if f.next == nil {
		f.ev, f.x, f.consumed = ev, x, ev.an.sc.tuples[x.ID].consumed
		f.used = make([]bool, len(x.Conjuncts))
		if x == ev.an.body {
			f.ranks = ev.an.ranks
		}
		f.next = f.step
	}
	return f
}

// step picks the next conjunct (refPickConjunct; the choice can differ
// per binding because boundness differs) and runs it depth-first with
// step itself as continuation, undoing the used mask on backtrack.
func (f *tupleFrame) step() error {
	if f.left == 0 {
		return f.k()
	}
	ev := f.ev
	if err := ev.checkCtx(); err != nil {
		return err
	}
	pick := refPickConjunct(f.used, f.consumed, f.ranks, ev.env, ev.noSchedule)
	f.used[pick] = true
	f.left--
	err := ev.satisfy(f.x.Conjuncts[pick], f.o, f.next)
	f.left++
	f.used[pick] = false
	return err
}

// refPickConjunct is pickConjunct over a live substitution.
func refPickConjunct(used []bool, consumed [][]int32, ranks []float64, env *Env, noSchedule bool) int {
	pick, first := -1, -1
	for idx, done := range used {
		if done {
			continue
		}
		if first < 0 {
			first = idx
			if noSchedule {
				return idx
			}
		}
		runnable := true
		for _, slot := range consumed[idx] {
			if !env.Bound(slot) {
				runnable = false
				break
			}
		}
		if !runnable {
			continue
		}
		if ranks == nil {
			return idx
		}
		if pick < 0 || ranks[idx] < ranks[pick] {
			pick = idx
		}
	}
	if pick < 0 {
		return first
	}
	return pick
}

// ---------------------------------------------------------------------------
// The differential harness

// oracleRun is one evaluation's observable outcome: the rows it emitted
// in raw order (the whole substitution at each), its Stats and its error.
type oracleRun struct {
	rows  []string
	stats Stats
	err   string
}

func (r oracleRun) String() string {
	return fmt.Sprintf("%d rows %v stats %+v err %q", len(r.rows), clip(strings.Join(r.rows, " | ")), r.stats, r.err)
}

// diff describes the first difference between two runs, "" for none.
func (r oracleRun) diff(ref oracleRun) string {
	switch {
	case r.err != ref.err:
		return fmt.Sprintf("error %q, reference %q", r.err, ref.err)
	case r.stats != ref.stats:
		return fmt.Sprintf("stats %+v, reference %+v", r.stats, ref.stats)
	case len(r.rows) != len(ref.rows):
		return fmt.Sprintf("%d rows, reference %d", len(r.rows), len(ref.rows))
	}
	for i := range r.rows {
		if r.rows[i] != ref.rows[i] {
			return fmt.Sprintf("row %d is %s, reference %s", i, r.rows[i], ref.rows[i])
		}
	}
	return ""
}

// errText renders an error with its type when it is an UnsafeError.
func errText(err error) string {
	if err == nil {
		return ""
	}
	var unsafe *UnsafeError
	if errors.As(err, &unsafe) {
		return "unsafe: " + err.Error()
	}
	return err.Error()
}

// renderRow renders a substitution for comparison.
func renderRow(row []object.Object) string {
	var b []byte
	b = appendRow(b, row, "\t", object.AppendString)
	return string(b)
}

// oracleQuery runs a compiled unit's body on root with seed loaded (nil:
// a fresh substitution) through an evaluator: its step programs, or the
// reference scheduler.
func oracleQuery(an *bodyAnalysis, root object.Object, seed []object.Object, opts Options, ref bool) oracleRun {
	var out oracleRun
	ev := newEvaluator(nil, an, opts, &out.stats)
	if seed != nil {
		ev.env.load(seed)
	}
	k := func() error {
		out.rows = append(out.rows, renderRow(ev.env.all()))
		return nil
	}
	var err error
	if ref {
		err = newRefEval(ev).satisfy(an.body, root, k)
	} else {
		err = ev.satisfy(an.body, root, k)
	}
	out.err = errText(err)
	return out
}

// oracleDiff compares the two schedulers on one unit, after a warm-up run
// that builds whatever indexes the unit probes, so both compared runs
// count the same IndexBuilds.
func oracleDiff(an *bodyAnalysis, root object.Object, seed []object.Object, opts Options) string {
	oracleQuery(an, root, seed, opts, false)
	got, want := oracleQuery(an, root, seed, opts, false), oracleQuery(an, root, seed, opts, true)
	if d := got.diff(want); d != "" {
		return fmt.Sprintf("%s\nprograms:  %s\nreference: %s", d, got, want)
	}
	return ""
}

// queryOracle compares a read's plan under both schedulers.
func queryOracle(t testing.TB, e *Engine, q *idlast.Query) string {
	t.Helper()
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	s := shapeOf(q)
	an := e.compilePlan(q, eff, s.key(e.opts), e.epoch, nil).an.bind(s.lits)
	return oracleDiff(an, eff, nil, e.opts)
}

// requestOracle compares an update request's query loop (execBody's:
// its query conjuncts in source order, each extending every row of the
// bag; updates and program calls skipped, as they bind nothing) from a
// seed row, through the programs bodyAnalysis.request compiles and
// through the reference scheduler.
func requestOracle(t testing.TB, e *Engine, an *bodyAnalysis, seed []object.Object) string {
	t.Helper()
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	isCall := func(c idlast.Expr) bool {
		_, _, ok := e.programCall(c)
		return ok
	}
	compiled := an.request(seed, isCall, e.opts.NoSchedule)
	run := func(ref bool) oracleRun {
		var out oracleRun
		ev := newEvaluator(nil, compiled, e.opts, &out.stats)
		envs := newRowSet(an.sc.size())
		envs.add(seed)
		for _, c := range an.body.Conjuncts {
			if idlast.HasUpdate(c) || isCall(c) {
				continue
			}
			extended := newRowSet(an.sc.size())
			k := func() error {
				extended.add(ev.env.all())
				return nil
			}
			for i := 0; i < envs.len(); i++ {
				ev.env.load(envs.row(i))
				var err error
				if ref {
					err = newRefEval(ev).satisfy(c, eff, k)
				} else {
					err = ev.satisfy(c, eff, k)
				}
				if err != nil {
					out.err = errText(err)
					return out
				}
			}
			envs = extended
		}
		for i := 0; i < envs.len(); i++ {
			out.rows = append(out.rows, renderRow(envs.row(i)))
		}
		return out
	}
	run(false)
	got, want := run(false), run(true)
	if d := got.diff(want); d != "" {
		return fmt.Sprintf("%s\nprograms:  %s\nreference: %s", d, got, want)
	}
	return ""
}

// ruleOracle compares every rule body of e under both schedulers against
// the effective universe: in full, as a refresh runs it, and — for up to
// three of its rows — with the head variables bound, as derivable runs
// it after a row loses a support.
func ruleOracle(t testing.TB, e *Engine) string {
	t.Helper()
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.rules {
		an := e.ranked(r.body, eff, nil)
		if d := oracleDiff(an, eff, nil, e.opts); d != "" {
			return fmt.Sprintf("rule %s: %s", r.src, d)
		}
		rows, err := e.collect(nil, an, readView{eff: eff, opts: e.opts}, &Stats{}, nil, 0)
		if err != nil {
			continue
		}
		for i := 0; i < min(rows.len(), 3); i++ {
			row := rows.row(i)
			entry := make([]bool, 1+len(row))
			for j, v := range row {
				entry[1+j] = v != nil
			}
			seed := make([]object.Object, an.sc.size())
			copy(seed[1:], row)
			if d := oracleDiff(e.ranked(r.body, eff, entry), eff, seed, e.opts); d != "" {
				return fmt.Sprintf("rule %s, head row %s: %s", r.src, renderRow(row), d)
			}
		}
	}
	return ""
}

// difftestStatements returns every statement string of the root
// package's differential experiments (difftest_test.go: diffExperiments
// and e12Programs), read from its source so the oracle covers whatever
// the grid runs.
func difftestStatements(t testing.TB) []string {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), "../../difftest_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if name := vs.Names[0].Name; name != "diffExperiments" && name != "e12Programs" {
				continue
			}
			ast.Inspect(vs, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && (strings.HasPrefix(s, "?") || strings.Contains(s, "->")) {
					out = append(out, s)
				}
				return true
			})
		}
	}
	if len(out) < 40 {
		t.Fatalf("read %d statements from difftest_test.go; its layout changed", len(out))
	}
	return out
}

// TestSchedulerOracle runs the reference scheduler beside the step
// programs over: the difftest statements, executed in order on one
// engine with every view and program they use; the seven served.scan
// shapes and their partners (bench/gen.go ScanPool) over a generated
// universe; program calls with every subset of their parameters seeded;
// and every rule body in full and with its head bound (derivable), after
// each write.
func TestSchedulerOracle(t *testing.T) {
	t.Run("difftest", func(t *testing.T) {
		e := newStockEngine(t)
		addRules(t, e, append(append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...), stocks.RulePnew))
		stmts := difftestStatements(t)
		for _, src := range stmts {
			if strings.Contains(src, "->") {
				mustClause(t, e, src)
			}
		}
		for _, src := range stmts {
			if strings.Contains(src, "->") {
				continue
			}
			q := mustParse(t, src)
			if !e.IsUpdate(q) {
				if d := queryOracle(t, e, q); d != "" {
					t.Fatalf("%s: %s", src, d)
				}
				continue
			}
			if d := requestOracle(t, e, resolveUnit(nil, q.Body, false), nil); d != "" {
				t.Fatalf("%s: %s", src, d)
			}
			e.Execute(q) // a failing request rolls back; the next statements see its state either way
			if d := ruleOracle(t, e); d != "" {
				t.Fatalf("after %s: %s", src, d)
			}
		}
	})

	t.Run("scan-shapes", func(t *testing.T) {
		ds := stocks.Generate(stocks.Config{Stocks: 8, Days: 15, Seed: 11})
		var prices []int
		for _, series := range ds.Price {
			prices = append(prices, series...)
		}
		hi, mid := quantileOf(prices, 0.9), quantileOf(prices, 0.5)
		for _, opts := range []Options{DefaultOptions(), {UseIndex: true, NoSchedule: true}, {}} {
			e := stockViewEngineOn(t, ds, opts)
			for _, src := range []string{
				fmt.Sprintf("?.euter.r(.stkCode=S, .clsPrice>%d)", hi),
				fmt.Sprintf("?.chwab.r(.S>%d)", hi),
				fmt.Sprintf("?.ource.S(.clsPrice>%d)", hi),
				"?.chwab.r(.date=D, .S=P), .ource.S(.date=D, .clsPrice=P)",
				"?.euter.r(.date=D, .stkCode=S, .clsPrice=P), .euter.r~(.date=D, .clsPrice>P)",
				"?.dbI.p(.date=D, .stk=S, .price=P)",
				fmt.Sprintf("?.dbO.S(.date=D, .clsPrice>%d)", mid),
				// Partners.
				"?.ource.S(.date=D, .clsPrice=P), ~.ource.S2(.date=D, .clsPrice>P)",
				"?.dbI.p(.date=D, .stk=S, .price=P), .dbI.p~(.date=D, .price>P)",
				"?.euter.r(.date=D, .stkCode=S, .clsPrice=P)",
				"?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)",
				"?.dbC.r(.date=D, .S=P), S != date",
				fmt.Sprintf("?.ource.S(.date=D, .clsPrice>%d)", mid),
				fmt.Sprintf("?.euter.r(.stkCode=S, .date=D, .clsPrice>%d)", mid),
				// Unsafe and failing shapes: the error is the reference's.
				"?.euter.r(.clsPrice=P), P > Q",
				"?.euter.r(.clsPrice>P), .chwab.r(.date=D, .stk001=P)",
				"?.euter.r(.stkCode=S, .clsPrice=(S + 1))",
				"?.euter.r(.stkCode=S, .date=D), Q = P + 1, .ource.S(.date=D, .clsPrice=P)",
				// Nothing runnable: the negation runs first, and binds
				// nothing for the conjunct after it.
				"?.euter.r~(.stkCode=nobody, .clsPrice=P), .euter.r(.clsPrice=P, .date>Q)",
			} {
				if d := queryOracle(t, e, mustParse(t, src)); d != "" {
					t.Fatalf("%s (%+v): %s", src, opts, d)
				}
			}
			if d := ruleOracle(t, e); d != "" {
				t.Fatal(d)
			}
		}
	})

	t.Run("program-seeds", func(t *testing.T) {
		e := stockViewEngine(t, 6, 8, DefaultOptions())
		for _, c := range []string{
			".dbU.look(.stk=S, .date=D, .price=P) -> .euter.r(.stkCode=S, .date=D, .clsPrice=P), .chwab.r(.date=D, .S=Q), .ource.S(.date=D, .clsPrice=Q), .dbX.seen+(.stk=S, .price=P)",
			".dbU.look(.stk=S, .date=D, .price=P) -> .euter.r(.stkCode=S, .clsPrice=P), P > 100, .euter.r~(.date=D, .clsPrice>P), .dbX.top+(.stk=S, .date=D)",
			".dbU.look(.stk=S, .date=D, .price=P) -> .X.Y(.date=D), X = ource, .ource.Y(.date=D, .clsPrice=P), .dbX.any+(.stk=Y)",
			".dbU.look(.stk=S, .date=D, .price=P) -> .euter.r(.stkCode=S, .clsPrice=P), .dbU.insStk(.stk=S, .date=D, .price=P), .ource.S(.clsPrice=P)",
			".dbU.look(.stk=S, .date=D, .price=P) -> .euter.r(.clsPrice>P)",
		} {
			mustClause(t, e, c)
		}
		p, ok := e.regs.Load().lookup("dbU", "look")
		if !ok {
			t.Fatal("no program dbU.look")
		}
		params := map[string]object.Object{"stk": object.Str("stk002"), "date": object.Date{Year: 1985, Month: 1, Day: 3}, "price": object.Int(120)}
		names := []string{"S", "D", "P"}
		vals := []object.Object{params["stk"], params["date"], params["price"]}
		for _, cc := range p.Clauses {
			for mask := 0; mask < 8; mask++ {
				bound := map[string]object.Object{}
				for i, name := range names {
					if mask&(1<<i) != 0 {
						bound[name] = vals[i]
					}
				}
				if d := requestOracle(t, e, cc.an, cc.an.seed(bound)); d != "" {
					t.Fatalf("%s with %v: %s", cc.src, bound, d)
				}
			}
		}
	})
}

// quantileOf returns the value below which share q of xs lie.
func quantileOf(xs []int, q float64) int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

// TestSchedulerOracleCatchesMisorder checks that the harness sees a
// schedule change: a body program run in reverse order yields the same
// rows in another raw order, or a different error, and the oracle must
// report it.
func TestSchedulerOracleCatchesMisorder(t *testing.T) {
	e := newStockEngine(t)
	eff, err := e.EffectiveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, "?.euter.r(.stkCode=S, .clsPrice=P), .chwab.r(.date=D, .hp=H)")
	s := shapeOf(q)
	an := e.compilePlan(q, eff, s.key(e.opts), e.epoch, nil).an.bind(s.lits)
	if d := oracleDiff(an, eff, nil, e.opts); d != "" {
		t.Fatalf("unchanged plan: %s", d)
	}
	top := an.top()
	flipped := &program{steps: append([]step(nil), top.steps...)}
	flipped.steps[0], flipped.steps[1] = flipped.steps[1], flipped.steps[0]
	flipped.steps[0].cont, flipped.steps[1].cont = flipped.steps[1].cont, flipped.steps[0].cont // resume slots belong to positions
	bad := *an
	bad.progs = append([]*program(nil), an.progs...)
	bad.progs[an.body.ID] = flipped
	if d := oracleDiff(&bad, eff, nil, e.opts); d == "" {
		t.Fatal("the oracle did not notice a reordered body")
	}
}
