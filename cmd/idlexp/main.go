// Command idlexp regenerates the paper's example suite (experiments
// E1–E12 in DESIGN.md): every query, update, view and update program in
// "Language Features for Interoperability of Databases with Schematic
// Discrepancies" (SIGMOD 1991), run against the three-schema stock
// fixture. Its output is recorded in EXPERIMENTS.md.
//
// Usage:
//
//	idlexp              run every experiment
//	idlexp -run E3      run one experiment
//	idlexp -list        list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"idl"
	"idl/internal/core"
	"idl/internal/msql"
)

func main() {
	var (
		runID = flag.String("run", "", "run a single experiment (e.g. E3)")
		list  = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range experiments {
		if *runID != "" && !strings.EqualFold(*runID, e.id) {
			continue
		}
		fmt.Printf("== %s — %s ==\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment %q; use -list\n", *runID)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	run   func() error
}

// fixture loads the paper's running example: hp/ibm/sun over three days
// in all three schemas.
func fixture() *idl.DB {
	db := idl.Open()
	cat := db.Catalog()
	dates := []idl.DateValue{idl.Date(85, 3, 1), idl.Date(85, 3, 2), idl.Date(85, 3, 3)}
	prices := map[string][]int{"hp": {50, 55, 62}, "ibm": {140, 155, 160}, "sun": {201, 210, 150}}
	stockOrder := []string{"hp", "ibm", "sun"}
	for _, s := range stockOrder {
		for i, p := range prices[s] {
			cat.Insert("euter", "r", idl.Tup("date", dates[i], "stkCode", s, "clsPrice", p))
			cat.Insert("ource", s, idl.Tup("date", dates[i], "clsPrice", p))
		}
	}
	for i, d := range dates {
		row := idl.Tup("date", d)
		for _, s := range stockOrder {
			row.Put(s, idl.Int(prices[s][i]))
		}
		cat.Insert("chwab", "r", row)
	}
	return db
}

// show runs a query and prints it with its result.
func show(db *idl.DB, caption, src string) error {
	fmt.Printf("-- %s\n   %s\n", caption, src)
	res, err := db.Query(src)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(res.String(), "\n") {
		fmt.Printf("   | %s\n", line)
	}
	return nil
}

// do runs an update request and prints its effects.
func do(db *idl.DB, caption, src string) error {
	fmt.Printf("-- %s\n   %s\n", caption, src)
	info, err := db.Exec(src)
	if err != nil {
		return err
	}
	fmt.Printf("   | +%d tuples, -%d tuples, +%d attrs, -%d attrs, %d values set\n",
		info.ElemsInserted, info.ElemsDeleted, info.AttrsCreated, info.AttrsDeleted, info.ValuesSet)
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

var unifiedRules = []string{
	".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
	".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
}

var customizedRules = []string{
	".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
}

var experiments = []experiment{
	{"E1", "first-order queries on euter (paper §4.2)", func() error {
		db := fixture()
		return firstErr(
			show(db, "did hp ever close above 60?", "?.euter.r(.stkCode=hp, .clsPrice>60)"),
			show(db, "dates when hp>60 and ibm>150 (self join)",
				"?.euter.r(.stkCode=hp,.clsPrice>60,.date=D), .euter.r(.stkCode=ibm,.clsPrice>150,.date=D)"),
			show(db, "hp's all-time high (negation + inequality join)",
				"?.euter.r(.stkCode=hp,.clsPrice=P,.date=D), .euter.r~(.stkCode=hp, .clsPrice>P)"),
			show(db, "did any stock ever close above 200?", "?.euter.r(.stkCode=S, .clsPrice>200)"),
		)
	}},
	{"E2", "higher-order metadata queries (paper §4.3)", func() error {
		db := fixture()
		return firstErr(
			show(db, "database names in the universe", "?.X"),
			show(db, "relation names in ource", "?.ource.Y"),
			show(db, "same, via footnote-7 constraint", "?.X.Y, X = ource"),
			show(db, "all database/relation pairs", "?.X.Y"),
			show(db, "databases containing a relation named hp", "?.X.hp"),
			show(db, "relations containing an attribute stkCode", "?.X.Y(.stkCode)"),
			show(db, "relation names common to all three databases", "?.euter.Y, .chwab.Y, .ource.Y"),
		)
	}},
	{"E3", "one intention, three schemas: any stock above 200 (§2/§4.3)", func() error {
		db := fixture()
		return firstErr(
			show(db, "euter (stock as data)", "?.euter.r(.stkCode=S, .clsPrice>200)"),
			show(db, "chwab (stock as attribute name)", "?.chwab.r(.S>200)"),
			show(db, "ource (stock as relation name)", "?.ource.S(.clsPrice > 200)"),
		)
	}},
	{"E4", "cross-database join: chwab × ource on closing price (§4.3)", func() error {
		db := fixture()
		return show(db, "stocks priced the same in ource and chwab",
			"?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)")
	}},
	{"E5", "highest close per day, in all three schemas (§2 query 2)", func() error {
		db := fixture()
		return firstErr(
			show(db, "euter", "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"),
			show(db, "chwab", "?.chwab.r(.date=D,.S=P), .chwab.r~(.date=D,.S2>P), S != date"),
			show(db, "ource", "?.ource.S(.date=D,.clsPrice=P), ~.ource.S2(.date=D, .clsPrice>P)"),
		)
	}},
	{"E6", "insert & delete set expressions on euter (§5.2)", func() error {
		db := fixture()
		return firstErr(
			do(db, "insert a quote", "?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=70)"),
			show(db, "visible", "?.euter.r(.date=3/4/85,.stkCode=hp,.clsPrice=P)"),
			do(db, "query-dependent delete",
				"?.euter.r(.date=3/4/85,.stkCode=hp,.clsPrice=C),.euter.r-(.date=3/4/85,.stkCode=hp,.clsPrice=C)"),
			show(db, "gone", "?.euter.r(.date=3/4/85,.stkCode=hp)"),
		)
	}},
	{"E7", "attribute-level updates on chwab (§5.2)", func() error {
		db := fixture()
		return firstErr(
			do(db, "null hp's price on 3/3/85 (atomic minus, attribute kept)",
				"?.chwab.r(.date=3/3/85, .hp-=C)"),
			show(db, "no longer satisfied", "?.chwab.r(.date=3/3/85, .hp=P)"),
			show(db, "but the attribute still exists", "?.chwab.r(.date=3/3/85, .A), A = hp"),
			do(db, "delete the attribute itself from the 3/2/85 tuple (tuple minus)",
				"?.chwab.r(.date=3/2/85, -.hp=C)"),
			show(db, "heterogeneous tuples: hp survives only on 3/1/85", "?.chwab.r(.date=D, .hp=P)"),
		)
	}},
	{"E8", "update as delete-then-insert; ordering matters (§5.2)", func() error {
		db := fixture()
		return firstErr(
			do(db, "raise hp's 3/3/85 price by 10",
				"?.chwab.r(.date=3/3/85,.hp=C), .chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)"),
			show(db, "result", "?.chwab.r(.date=3/3/85,.hp=P)"),
		)
	}},
	{"E9", "unified view dbI.p over all three schemas; pnew reconciliation (§6)", func() error {
		db := fixture()
		if err := db.DefineViews(unifiedRules...); err != nil {
			return err
		}
		if err := db.DefineView(".dbI.pnew+(.date=D,.stk=S,.price=P) <- .dbI.p(.date=D,.stk=S,.price=P), .dbI.p~(.date=D,.stk=S,.price>P)"); err != nil {
			return err
		}
		return firstErr(
			show(db, "database transparency: one query, all databases", "?.dbI.p(.stk=S, .price>200)"),
			do(db, "introduce a value discrepancy in chwab",
				"?.chwab.r(.date=3/1/85,.hp=C), .chwab.r-(.date=3/1/85,.hp=C), .chwab.r+(.date=3/1/85,.hp=51)"),
			show(db, "both prices are in the user's view (paper's wording)",
				"?.dbI.p(.stk=hp, .date=3/1/85, .price=P)"),
			show(db, "pnew keeps one reconciled price",
				"?.dbI.pnew(.stk=hp, .date=3/1/85, .price=P)"),
		)
	}},
	{"E10", "customized views dbE/dbC/dbO; Figure 1 round trip (§6)", func() error {
		db := fixture()
		if err := db.DefineViews(unifiedRules...); err != nil {
			return err
		}
		if err := db.DefineViews(customizedRules...); err != nil {
			return err
		}
		return firstErr(
			show(db, "dbE re-creates the euter schema", "?.dbE.r(.date=3/3/85,.stkCode=S,.clsPrice=P)"),
			show(db, "dbC re-creates the chwab schema (one row per day)",
				"?.dbC.r(.date=3/2/85, .hp=HP, .ibm=IBM, .sun=SUN)"),
			show(db, "dbO is a higher-order view: one relation per stock", "?.dbO.Y"),
			do(db, "adding a stock anywhere grows dbO's schema",
				"?.euter.r+(.date=3/1/85,.stkCode=dec,.clsPrice=80)"),
			show(db, "dbO now has a dec relation", "?.dbO.Y"),
			show(db, "with the right content", "?.dbO.dec(.date=D,.clsPrice=P)"),
		)
	}},
	{"E11", "name mappings mapCE/mapOE (§6, last example)", func() error {
		db := idl.Open()
		cat := db.Catalog()
		d := idl.Date(85, 3, 1)
		cat.Insert("euter", "r", idl.Tup("date", d, "stkCode", "hewlettPackard", "clsPrice", 50))
		cat.Insert("chwab", "r", idl.Tup("date", d, "hp", 50))
		cat.Insert("ource", "hpq", idl.Tup("date", d, "clsPrice", 50))
		cat.Insert("maps", "mapCE", idl.Tup("from", "hp", "to", "hewlettPackard"))
		cat.Insert("maps", "mapOE", idl.Tup("from", "hpq", "to", "hewlettPackard"))
		if err := db.DefineViews(
			".dbI.p+(.date=D,.stk=S,.price=P) <- .euter.r(.date=D,.stkCode=S,.clsPrice=P)",
			".dbI.p+(.date=D,.stk=S,.price=P) <- .chwab.r(.date=D,.SC=P), .maps.mapCE(.from=SC,.to=S)",
			".dbI.p+(.date=D,.stk=S,.price=P) <- .ource.SO(.date=D,.clsPrice=P), .maps.mapOE(.from=SO,.to=S)",
		); err != nil {
			return err
		}
		return show(db, "unified view under name mappings", "?.dbI.p(.stk=S,.price=P)")
	}},
	{"E12", "update programs delStk/rmStk/insStk; view updatability (§7)", func() error {
		db := fixture()
		if err := db.DefineViews(unifiedRules...); err != nil {
			return err
		}
		if err := db.DefineViews(customizedRules...); err != nil {
			return err
		}
		programs := []string{
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
		if err := db.DefinePrograms(programs...); err != nil {
			return err
		}
		for _, p := range db.Programs() {
			fmt.Printf("-- program .%s.%s  params: %s  required: %s\n",
				p.DB, p.Name, strings.Join(p.Params(), ","), strings.Join(p.Required(), ","))
		}
		return firstErr(
			do(db, "delStk(hp, 3/3/85): data in euter/ource, null in chwab",
				"?.dbU.delStk(.stk=hp, .date=3/3/85)"),
			show(db, "euter no longer has the tuple", "?.euter.r(.stkCode=hp,.date=3/3/85)"),
			do(db, "rmStk(ibm): data, attribute and relation deletion", "?.dbU.rmStk(.stk=ibm)"),
			show(db, "ource relations after rmStk", "?.ource.Y"),
			do(db, "insStk(dec): inserts into all three schemas",
				"?.dbU.insStk(.stk=dec, .date=3/1/85, .price=80)"),
			show(db, "chwab gained a dec attribute", "?.chwab.r(.date=3/1/85,.dec=P)"),
			do(db, "view update on the higher-order view dbO (translated by programs)",
				"?.dbO.newco+(.date=3/9/85, .clsPrice=7)"),
			show(db, "dbO grew a newco relation backed by a base insert",
				"?.dbO.newco(.date=D,.clsPrice=P)"),
			show(db, "base euter received the translated insert", "?.euter.r(.stkCode=newco,.clsPrice=P)"),
		)
	}},
	{"X1", "extension: reified metadata (meta database; paper §2 third need)", func() error {
		opts := core.DefaultOptions()
		opts.ExposeMeta = true
		db := idl.OpenWithOptions(opts)
		seedInto(db)
		return firstErr(
			show(db, "the universe's schema as data", "?.meta.relations(.db=D, .rel=R, .tuples=N)"),
			show(db, "metadata joined with data: databases with a relation named after a 200+ stock",
				"?.euter.r(.stkCode=S, .clsPrice>200), .meta.relations(.db=D, .rel=S)"),
		)
	}},
	{"X2", "extension: keys/types/referential integrity (paper §8)", func() error {
		db := fixture()
		if err := db.Schema().Declare(idl.RelDecl{
			DB: "euter", Rel: "r",
			Attrs: []idl.AttrDecl{
				{Name: "date", Type: idl.DateType, Required: true},
				{Name: "stkCode", Type: idl.StringType, Required: true},
				{Name: "clsPrice", Type: idl.NumberType},
			},
			Key: []string{"date", "stkCode"},
		}); err != nil {
			return err
		}
		if err := do(db, "a valid insert passes", "?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=70)"); err != nil {
			return err
		}
		fmt.Println("-- a key-violating insert is rejected and rolled back")
		if _, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=71)"); err != nil {
			fmt.Printf("   | error (as required): %v\n", err)
		} else {
			return fmt.Errorf("duplicate key accepted")
		}
		fmt.Println("-- a type-violating insert is rejected")
		if _, err := db.Exec("?.euter.r+(.date=3/5/85, .stkCode=hp, .clsPrice=cheap)"); err != nil {
			fmt.Printf("   | error (as required): %v\n", err)
			return nil
		}
		return fmt.Errorf("type violation accepted")
	}},
	{"X3", "extension: MSQL subsumption — broadcast SQL compiled to IDL (§1)", func() error {
		db := fixture()
		// Clone euter as euter2 so the broadcast has something to span.
		base := db.Engine().Base()
		euter, _ := base.Get("euter")
		base.Put("euter2", euter.Clone())
		db.Engine().Invalidate()
		src := "SELECT &D, r.stkCode FROM &D.r WHERE r.clsPrice > 200"
		st, err := msql.Parse(src)
		if err != nil {
			return err
		}
		rs, err := msql.Exec(st, base)
		if err != nil {
			return err
		}
		fmt.Printf("-- MSQL broadcast (database semantic variable &D)\n   %s\n", src)
		for _, line := range strings.Split(rs.Canonical(), "\n") {
			fmt.Printf("   | %s\n", line)
		}
		q, columns, err := msql.Translate(st)
		if err != nil {
			return err
		}
		fmt.Printf("-- the same statement compiled to IDL (subsumption)\n   %s\n", q.String())
		ans, err := db.Engine().Query(q)
		if err != nil {
			return err
		}
		// Project onto the statement's SELECT list before counting
		// (iterate the columns in sorted order for a stable key).
		var colVars []string
		for _, v := range columns {
			colVars = append(colVars, v)
		}
		sort.Strings(colVars)
		distinct := map[string]bool{}
		for _, row := range ans.Rows() {
			key := ""
			for _, v := range colVars {
				if val := row.Get(v); val != nil {
					key += val.String() + "\x00"
				}
			}
			distinct[key] = true
		}
		fmt.Printf("   | %d projected rows — identical to the MSQL result (checked by tests)\n", len(distinct))
		fmt.Println("-- what MSQL cannot say at all: ?.chwab.r(.S>200) — attribute variables")
		return nil
	}},
}

// seedInto loads the paper fixture into an already-opened DB (for
// experiments needing special engine options).
func seedInto(db *idl.DB) {
	src := fixture()
	src.Engine().Base().Each(func(name string, v idl.Value) bool {
		db.Engine().Base().Put(name, v)
		return true
	})
	db.Engine().Invalidate()
}
