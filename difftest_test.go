package idl

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"idl/internal/datalog"
	"idl/internal/object"
	"idl/internal/stocks"
)

// Differential-testing harness (DESIGN.md §10): every experiment script
// E1–E12 and a generated stock workload run under sequential evaluation
// and under parallel evaluation at 2, 4 and 8 workers, and under every
// planning mode — cold-compiled (the reference: a plan
// per query, cache disabled) and cached (the default epoch-keyed plan
// cache); the rendered transcripts — canonical answers, row order,
// update counts, errors — must be byte-identical across the whole
// mode × workers grid. Where the intention is first-order expressible,
// answers are also cross-checked against the internal/datalog baseline.

// diffFixture loads the paper's running example (hp/ibm/sun over three
// days, all three schemas) — the same fixture cmd/idlexp uses.
func diffFixture(t testing.TB, db *DB) {
	t.Helper()
	cat := db.Catalog()
	dates := []DateValue{Date(85, 3, 1), Date(85, 3, 2), Date(85, 3, 3)}
	prices := map[string][]int{"hp": {50, 55, 62}, "ibm": {140, 155, 160}, "sun": {201, 210, 150}}
	stockOrder := []string{"hp", "ibm", "sun"}
	for _, s := range stockOrder {
		for i, p := range prices[s] {
			if _, err := cat.Insert("euter", "r", Tup("date", dates[i], "stkCode", s, "clsPrice", p)); err != nil {
				t.Fatal(err)
			}
			if _, err := cat.Insert("ource", s, Tup("date", dates[i], "clsPrice", p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, d := range dates {
		row := Tup("date", d)
		for _, s := range stockOrder {
			row.Put(s, Int(prices[s][i]))
		}
		if _, err := cat.Insert("chwab", "r", row); err != nil {
			t.Fatal(err)
		}
	}
}

// diffExperiment is one scripted experiment: an optional environment
// builder plus the statement sequence (queries, updates, rules, clauses
// and program calls all load through db.Load).
type diffExperiment struct {
	name  string
	setup func(t testing.TB, db *DB)
	stmts []string
}

var e12Programs = []string{
	".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
	".dbU.delStk(.stk=S, .date=D) -> .chwab.r(.date=D, .S-=X)",
	".dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)",
	".dbU.rmStk(.stk=S) -> .euter.r-(.stkCode=S)",
	".dbU.rmStk(.stk=S) -> .chwab.r(-.S)",
	".dbU.rmStk(.stk=S) -> .ource-.S",
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P)",
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .chwab.r(.date=D, +.S=P)",
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .ource.S+(.date=D,.clsPrice=P)",
	".dbI.p+(.date=D, .stk=S, .price=P) -> .euter.r+(.date=D, .stkCode=S, .clsPrice=P)",
	".dbO.S+(.date=D, .clsPrice=P) -> .dbI.p+(.date=D, .stk=S, .price=P)",
}

// diffExperiments mirrors cmd/idlexp's E1–E12 statement-for-statement.
var diffExperiments = []diffExperiment{
	{name: "E1", stmts: []string{
		"?.euter.r(.stkCode=hp, .clsPrice>60)",
		"?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
		"?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P)",
		"?.euter.r(.stkCode=S, .clsPrice>200)",
	}},
	{name: "E2", stmts: []string{
		"?.X", "?.ource.Y", "?.X.Y, X = ource", "?.X.Y", "?.X.hp",
		"?.X.Y(.stkCode)", "?.euter.Y, .chwab.Y, .ource.Y",
	}},
	{name: "E3", stmts: []string{
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.chwab.r(.S>200)",
		"?.ource.S(.clsPrice > 200)",
	}},
	{name: "E4", stmts: []string{
		"?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
	}},
	{name: "E5", stmts: []string{
		"?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)",
		"?.chwab.r(.date=D,.S=P), .chwab.r~(.date=D,.S2>P), S != date",
		"?.ource.S(.date=D,.clsPrice=P), ~.ource.S2(.date=D, .clsPrice>P)",
	}},
	{name: "E6", stmts: []string{
		"?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=70)",
		"?.euter.r(.date=3/4/85,.stkCode=hp,.clsPrice=P)",
		"?.euter.r(.date=3/4/85,.stkCode=hp,.clsPrice=C),.euter.r-(.date=3/4/85,.stkCode=hp,.clsPrice=C)",
		"?.euter.r(.date=3/4/85,.stkCode=hp)",
	}},
	{name: "E7", stmts: []string{
		"?.chwab.r(.date=3/3/85, .hp-=C)",
		"?.chwab.r(.date=3/3/85, .hp=P)",
		"?.chwab.r(.date=3/3/85, .A), A = hp",
		"?.chwab.r(.date=3/2/85, -.hp=C)",
		"?.chwab.r(.date=D, .hp=P)",
	}},
	{name: "E8", stmts: []string{
		"?.chwab.r(.date=3/3/85,.hp=C), .chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)",
		"?.chwab.r(.date=3/3/85,.hp=P)",
	}},
	{name: "E9", setup: func(t testing.TB, db *DB) {
		if err := db.DefineViews(stocks.RulesUnified...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineView(stocks.RulePnew); err != nil {
			t.Fatal(err)
		}
	}, stmts: []string{
		"?.dbI.p(.stk=S, .price>200)",
		"?.chwab.r(.date=3/1/85,.hp=C), .chwab.r-(.date=3/1/85,.hp=C), .chwab.r+(.date=3/1/85,.hp=51)",
		"?.dbI.p(.stk=hp, .date=3/1/85, .price=P)",
		"?.dbI.pnew(.stk=hp, .date=3/1/85, .price=P)",
	}},
	{name: "E10", setup: func(t testing.TB, db *DB) {
		if err := db.DefineViews(stocks.RulesUnified...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineViews(stocks.RulesCustomized...); err != nil {
			t.Fatal(err)
		}
	}, stmts: []string{
		"?.dbE.r(.date=3/3/85,.stkCode=S,.clsPrice=P)",
		"?.dbC.r(.date=3/2/85, .hp=HP, .ibm=IBM, .sun=SUN)",
		"?.dbO.Y",
		"?.euter.r+(.date=3/1/85,.stkCode=dec,.clsPrice=80)",
		"?.dbO.Y",
		"?.dbO.dec(.date=D,.clsPrice=P)",
	}},
	{name: "E12", setup: func(t testing.TB, db *DB) {
		if err := db.DefineViews(stocks.RulesUnified...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineViews(stocks.RulesCustomized...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefinePrograms(e12Programs...); err != nil {
			t.Fatal(err)
		}
	}, stmts: []string{
		"?.dbU.delStk(.stk=hp, .date=3/3/85)",
		"?.euter.r(.stkCode=hp,.date=3/3/85)",
		"?.dbU.rmStk(.stk=ibm)",
		"?.ource.Y",
		"?.dbU.insStk(.stk=dec, .date=3/1/85, .price=80)",
		"?.chwab.r(.date=3/1/85,.dec=P)",
		"?.dbO.newco+(.date=3/9/85, .clsPrice=7)",
		"?.dbO.newco(.date=D,.clsPrice=P)",
		"?.euter.r(.stkCode=newco,.clsPrice=P)",
	}},
}

// e11Experiment needs its own tiny fixture (name-mapping databases).
func e11Transcript(t testing.TB, mode func(*Options), workers int) []string {
	t.Helper()
	db := diffOpen(mode, workers)
	cat := db.Catalog()
	d := Date(85, 3, 1)
	for _, ins := range []struct {
		db, rel string
		tup     *Tuple
	}{
		{"euter", "r", Tup("date", d, "stkCode", "hewlettPackard", "clsPrice", 50)},
		{"chwab", "r", Tup("date", d, "hp", 50)},
		{"ource", "hpq", Tup("date", d, "clsPrice", 50)},
		{"maps", "mapCE", Tup("from", "hp", "to", "hewlettPackard")},
		{"maps", "mapOE", Tup("from", "hpq", "to", "hewlettPackard")},
	} {
		if _, err := cat.Insert(ins.db, ins.rel, ins.tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineViews(stocks.RulesUnifiedMapped...); err != nil {
		t.Fatal(err)
	}
	return diffTranscript(t, db, []string{"?.dbI.p(.stk=S,.price=P)"})
}

// diffTranscript runs the statements in order and renders every
// observable outcome deterministically — including the raw row order of
// each answer, which the parallel merge must reproduce exactly.
func diffTranscript(t testing.TB, db *DB, stmts []string) []string {
	t.Helper()
	var out []string
	for _, stmt := range stmts {
		results, err := db.Load(stmt)
		if err != nil {
			out = append(out, fmt.Sprintf("error: %v", err))
			continue
		}
		for _, r := range results {
			switch r.Kind {
			case "query":
				out = append(out, "answer: "+r.Answer.String())
				for i, row := range r.Answer.Rows() {
					var cells []string
					for _, v := range r.Answer.Vars {
						cells = append(cells, fmt.Sprintf("%s=%s", v, row.Get(v)))
					}
					out = append(out, fmt.Sprintf("row[%d]: %s", i, strings.Join(cells, " ")))
				}
			case "exec":
				out = append(out, fmt.Sprintf("exec: +%d -%d +a%d -a%d set%d bind%d",
					r.Exec.ElemsInserted, r.Exec.ElemsDeleted, r.Exec.AttrsCreated,
					r.Exec.AttrsDeleted, r.Exec.ValuesSet, r.Exec.Bindings))
			default:
				out = append(out, r.Kind+": "+r.Statement)
			}
		}
	}
	return out
}

// diffCompare fails with a readable first-divergence report.
func diffCompare(t *testing.T, label string, seq, par []string) {
	t.Helper()
	n := len(seq)
	if len(par) < n {
		n = len(par)
	}
	for i := 0; i < n; i++ {
		if seq[i] != par[i] {
			t.Fatalf("%s: transcript diverges at line %d\nsequential: %s\nparallel:   %s", label, i, seq[i], par[i])
		}
	}
	if len(seq) != len(par) {
		t.Fatalf("%s: transcript length diverges: sequential %d lines, parallel %d", label, len(seq), len(par))
	}
}

var diffWorkerCounts = []int{2, 4, 8}

// diffModes are the planning modes the grid covers. "cold" is the
// baseline: a plan compiled for every query and never cached. "cached"
// is the production default: the epoch-keyed plan cache.
var diffModes = []struct {
	name string
	set  func(*Options)
}{
	{"cold", func(o *Options) { o.NoPlanCache = true }},
	{"cached", func(o *Options) {}},
}

// diffReference names the mode every transcript is compared against.
const diffReference = "cold"

// diffMode returns the named planning mode's option edit.
func diffMode(name string) func(*Options) {
	for _, m := range diffModes {
		if m.name == name {
			return m.set
		}
	}
	panic("difftest: no planning mode " + name)
}

// diffOpen builds a DB in the named planning mode at a worker count.
func diffOpen(mode func(*Options), workers int) *DB {
	opts := DefaultOptions()
	mode(&opts)
	db := OpenWithOptions(opts)
	db.SetWorkers(workers)
	return db
}

// TestDifferentialExperiments runs E1–E12 across the full planning-mode ×
// worker-count grid, byte-comparing every transcript against the
// sequential cold-compiled baseline.
func TestDifferentialExperiments(t *testing.T) {
	for _, exp := range diffExperiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			run := func(mode func(*Options), workers int) []string {
				db := diffOpen(mode, workers)
				diffFixture(t, db)
				if exp.setup != nil {
					exp.setup(t, db)
				}
				return diffTranscript(t, db, exp.stmts)
			}
			base := run(diffMode(diffReference), 0)
			for _, m := range diffModes {
				for _, w := range append([]int{0}, diffWorkerCounts...) {
					if m.name == diffReference && w == 0 {
						continue
					}
					diffCompare(t, fmt.Sprintf("%s mode=%s workers=%d", exp.name, m.name, w), base, run(m.set, w))
				}
			}
		})
	}
	t.Run("E11", func(t *testing.T) {
		base := e11Transcript(t, diffMode(diffReference), 0)
		for _, m := range diffModes {
			for _, w := range append([]int{0}, diffWorkerCounts...) {
				if m.name == diffReference && w == 0 {
					continue
				}
				diffCompare(t, fmt.Sprintf("E11 mode=%s workers=%d", m.name, w), base, e11Transcript(t, m.set, w))
			}
		}
	})
}

// TestDifferentialMVCCModes byte-compares MVCC snapshot reads (the
// lock-free path) with and without a tracer attached (spans and
// per-conjunct probes built on the lock-free path), across worker counts
// 0/1/2/4/8, over every E1–E12 experiment. Every first read after a write
// still refreshes and evaluates under the engine mutex, so each
// transcript interleaves the locked and lock-free read paths. Neither the
// read path nor observing it may be visible in answers, row order,
// update counts or errors.
func TestDifferentialMVCCModes(t *testing.T) {
	ccModes := []struct {
		name   string
		opened func(*DB) // post-open hook, may be nil
	}{
		{"mvcc", nil},
		{"mvcc+traced", func(db *DB) { db.EnableTracing(4) }},
	}
	workerGrid := []int{0, 1, 2, 4, 8}
	for _, exp := range diffExperiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			run := func(mode int, workers int) []string {
				db := diffOpen(func(*Options) {}, workers)
				if ccModes[mode].opened != nil {
					ccModes[mode].opened(db)
				}
				diffFixture(t, db)
				if exp.setup != nil {
					exp.setup(t, db)
				}
				return diffTranscript(t, db, exp.stmts)
			}
			base := run(0, 0)
			for i, m := range ccModes {
				for _, w := range workerGrid {
					if i == 0 && w == 0 {
						continue
					}
					diffCompare(t, fmt.Sprintf("%s cc=%s workers=%d", exp.name, m.name, w), base, run(i, w))
				}
			}
		})
	}
}

// generatedWorkloadStatements is the large-workload script: the paper's
// three intentions over every schema, plus view queries over the unified
// and customized views.
func generatedWorkloadStatements(threshold int) []string {
	var stmts []string
	for _, schema := range []string{"euter", "chwab", "ource"} {
		stmts = append(stmts, stocks.QueryAnyAbove(threshold)[schema])
	}
	for _, schema := range []string{"euter", "chwab", "ource"} {
		stmts = append(stmts, stocks.QueryHighestPerDay()[schema])
	}
	stmts = append(stmts,
		stocks.QueryCrossJoin,
		fmt.Sprintf("?.dbI.p(.stk=S, .price>%d)", threshold),
		"?.dbI.pnew(.date=D, .stk=S, .price=P), .dbI.pnew~(.date=D, .price>P)",
		"?.dbE.r(.stkCode=S, .clsPrice=P), .euter.r~(.stkCode=S, .clsPrice>P)",
		"?.dbO.Y",
	)
	return stmts
}

// TestDifferentialGeneratedWorkload runs the generated stock universe —
// large enough that every query partitions — across the full
// planning-mode × worker-count grid. Each mode's statements run twice
// per DB so the cached mode actually exercises plan-cache hits.
func TestDifferentialGeneratedWorkload(t *testing.T) {
	cfg := stocks.Config{Stocks: 20, Days: 25, Seed: 7, Discrepancies: 9}
	probe := stocks.Generate(cfg)
	threshold := probe.MaxPrice() * 3 / 4
	stmts := generatedWorkloadStatements(threshold)
	// Two passes over the read-only statements: pass one compiles (or
	// interprets), pass two must serve cached plans byte-identically.
	stmts = append(stmts, stmts...)
	run := func(mode func(*Options), workers int) []string {
		db := diffOpen(mode, workers)
		ds := stocks.Generate(cfg)
		ds.Populate(db.Engine().Base())
		db.Engine().Invalidate()
		if err := db.DefineViews(stocks.RulesUnified...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineView(stocks.RulePnew); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineViews(stocks.RulesCustomized...); err != nil {
			t.Fatal(err)
		}
		return diffTranscript(t, db, stmts)
	}
	base := run(diffMode(diffReference), 0)
	for _, m := range diffModes {
		for _, w := range append([]int{0}, diffWorkerCounts...) {
			if m.name == diffReference && w == 0 {
				continue
			}
			diffCompare(t, fmt.Sprintf("generated workload mode=%s workers=%d", m.name, w), base, run(m.set, w))
		}
	}
	// The cached run above must have actually hit the cache on pass two.
	db := diffOpen(diffMode("cached"), 0)
	ds := stocks.Generate(cfg)
	ds.Populate(db.Engine().Base())
	db.Engine().Invalidate()
	if err := db.DefineViews(stocks.RulesUnified...); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineView(stocks.RulePnew); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineViews(stocks.RulesCustomized...); err != nil {
		t.Fatal(err)
	}
	diffTranscript(t, db, stmts)
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("cached mode recorded no plan-cache hits: %+v", st)
	}
}

// TestDifferentialDigestCounters extends the differential surface to
// statement insights: for a fixed workload, every digest's call, error
// and resource counters (rows scanned, tuples emitted, fixpoint rounds,
// index work, federation fetches) must be identical whether evaluation
// ran sequentially or at 2/4/8 workers. Latency fields are timing
// products and excluded; everything else in a digest is evaluation
// output and falls under the same byte-identity contract as answers.
// A digest is a statement shape: the workload's literal variants
// (another threshold) fold into the digest of the statement they vary.
func TestDifferentialDigestCounters(t *testing.T) {
	cfg := stocks.Config{Stocks: 12, Days: 15, Seed: 11, Discrepancies: 5}
	probe := stocks.Generate(cfg)
	threshold := probe.MaxPrice() * 3 / 4
	stmts := generatedWorkloadStatements(threshold)
	shapes := len(stmts)
	for _, schema := range []string{"euter", "chwab", "ource"} {
		stmts = append(stmts, stocks.QueryAnyAbove(threshold - 7)[schema])
	}
	stmts = append(stmts, fmt.Sprintf("?.dbI.p(.stk=S, .price>%d)", threshold+3))

	type key struct{ fp, kind string }
	type counters struct {
		calls, errors uint64
		res           StatementResources
	}
	run := func(workers int) map[key]counters {
		db := diffOpen(diffMode("cached"), workers)
		ds := stocks.Generate(cfg)
		ds.Populate(db.Engine().Base())
		db.Engine().Invalidate()
		if err := db.DefineViews(stocks.RulesUnified...); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineView(stocks.RulePnew); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineViews(stocks.RulesCustomized...); err != nil {
			t.Fatal(err)
		}
		db.EnableInsights(InsightsConfig{})
		diffTranscript(t, db, stmts)
		digests, err := db.Statements()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[key]counters, len(digests))
		for _, d := range digests {
			out[key{d.Fingerprint, d.Kind}] = counters{d.Calls, d.Errors, d.Resources}
		}
		return out
	}
	base := run(0)
	if len(base) != shapes {
		t.Fatalf("sequential run digested %d shapes of %d statements, want %d", len(base), len(stmts), shapes)
	}
	calls := uint64(0)
	for _, c := range base {
		calls += c.calls
	}
	if calls != uint64(len(stmts)) {
		t.Fatalf("digests count %d calls, want one per statement (%d)", calls, len(stmts))
	}
	for _, w := range diffWorkerCounts {
		got := run(w)
		if len(got) != len(base) {
			t.Fatalf("workers=%d digested %d statements, sequential %d", w, len(got), len(base))
		}
		for k, b := range base {
			g, ok := got[k]
			if !ok {
				t.Fatalf("workers=%d missing digest %s kind=%s", w, k.fp, k.kind)
			}
			if !reflect.DeepEqual(b, g) {
				t.Errorf("workers=%d digest %s counters diverge:\nsequential: %+v\nparallel:   %+v", w, k.fp, b, g)
			}
		}
	}
}

// TestDifferentialDatalogBaseline cross-checks the first-order-expressible
// intention ("any stock above N") against the internal/datalog baseline,
// for sequential and parallel IDL evaluation alike.
func TestDifferentialDatalogBaseline(t *testing.T) {
	cfg := stocks.Config{Stocks: 15, Days: 20, Seed: 3}
	u, ds := stocks.Universe(cfg)
	threshold := ds.MaxPrice() * 3 / 4

	baseline := map[string][]string{}
	dlE, _, err := stocks.DatalogEuter(u, threshold)
	if err != nil {
		t.Fatal(err)
	}
	dlC, _, err := stocks.DatalogChwab(u, ds.ChwabName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	dlO, _, err := stocks.DatalogOurce(u, ds.OurceName, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for name, dl := range map[string]*datalog.DB{"euter": dlE, "chwab": dlC, "ource": dlO} {
		rows, err := dl.Query(datalog.P("above", datalog.V("S")))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, row := range rows {
			seen[string(row["S"].(object.Str))] = true
		}
		var names []string
		for s := range seen {
			names = append(names, s)
		}
		sort.Strings(names)
		baseline[name] = names
	}

	for _, workers := range append([]int{0}, diffWorkerCounts...) {
		db := Open()
		db.SetWorkers(workers)
		u.Each(func(name string, v Value) bool {
			db.Engine().Base().Put(name, v)
			return true
		})
		db.Engine().Invalidate()
		for schema, src := range stocks.QueryAnyAbove(threshold) {
			ans, err := db.Query(src)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, src, err)
			}
			seen := map[string]bool{}
			for _, v := range ans.Column("S") {
				seen[string(v.(Str))] = true
			}
			var names []string
			for s := range seen {
				names = append(names, s)
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, baseline[schema]) {
				t.Errorf("workers=%d %s: IDL %v != datalog %v", workers, schema, names, baseline[schema])
			}
		}
	}
}
