package core

import (
	"strings"
	"sync"
	"testing"

	"idl/internal/object"
)

// The paper's three update programs (§7.1).
var delStkClauses = []string{
	".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
	".dbU.delStk(.stk=S, .date=D) -> .chwab.r(.date=D, .S-=X)",
	".dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)",
}

var rmStkClauses = []string{
	".dbU.rmStk(.stk=S) -> .euter.r-(.stkCode=S)",
	".dbU.rmStk(.stk=S) -> .chwab.r(-.S)",
	".dbU.rmStk(.stk=S) -> .ource-.S",
}

var insStkClauses = []string{
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P)",
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .chwab.r(.date=D, +.S=P)",
	".dbU.insStk(.stk=S, .date=D, .price=P) -> .ource.S+(.date=D,.clsPrice=P)",
}

func addClauses(t testing.TB, e *Engine, clauses []string) {
	t.Helper()
	for _, c := range clauses {
		mustClause(t, e, c)
	}
}

// TestRegistryReadsDuringRegistration: lookups read the published
// registry with no lock while clauses register; a reader sees each
// program with the clauses of some published registry — never a
// half-built one — and the program's clause count only grows.
func TestRegistryReadsDuringRegistration(t *testing.T) {
	e := newStockEngine(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				if p, ok := e.LookupProgram("dbU", "delStk"); ok {
					n := len(p.Clauses)
					if n < seen || n > len(delStkClauses) {
						t.Errorf("delStk has %d clauses after %d were seen", n, seen)
						return
					}
					seen = n
				}
				_ = e.Programs()
			}
		}()
	}
	for _, c := range append(append([]string{}, delStkClauses...), rmStkClauses...) {
		mustClause(t, e, c)
	}
	close(done)
	wg.Wait()
	if p, ok := e.LookupProgram("dbU", "delStk"); !ok || len(p.Clauses) != len(delStkClauses) {
		t.Fatalf("delStk after registration: %v, %v", p, ok)
	}
	if got := len(e.Clauses()); got != len(delStkClauses)+len(rmStkClauses) {
		t.Fatalf("%d clauses registered, want %d", got, len(delStkClauses)+len(rmStkClauses))
	}
}

func TestDelStkBothArguments(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	exec(t, e, "?.dbU.delStk(.stk=hp, .date=3/3/85)")
	// euter: the (hp, 3/3/85) tuple is gone.
	if ans := q(t, e, "?.euter.r(.stkCode=hp,.date=3/3/85)"); ans.Bool() {
		t.Error("euter tuple should be deleted")
	}
	if relation(t, e, "euter", "r").Len() != 8 {
		t.Error("only one euter tuple should go")
	}
	// chwab: hp's price nulled on that date, attribute retained.
	if ans := q(t, e, "?.chwab.r(.date=3/3/85,.hp=P)"); ans.Bool() {
		t.Error("chwab hp price should be nulled")
	}
	if ans := q(t, e, "?.chwab.r(.date=3/1/85,.hp=50)"); !ans.Bool() {
		t.Error("chwab other dates untouched")
	}
	// ource: hp relation lost its 3/3/85 tuple but still exists.
	if ans := q(t, e, "?.ource.hp(.date=3/3/85)"); ans.Bool() {
		t.Error("ource.hp tuple should be deleted")
	}
	if ans := q(t, e, "?.ource.hp(.date=3/1/85)"); !ans.Bool() {
		t.Error("ource.hp other dates remain")
	}
}

func TestDelStkWildcardDate(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	// No date: delete hp's closing price for every day, but keep the
	// structure (§7.1).
	exec(t, e, "?.dbU.delStk(.stk=hp)")
	if ans := q(t, e, "?.euter.r(.stkCode=hp)"); ans.Bool() {
		t.Error("all hp euter tuples should be gone")
	}
	// chwab still *has* the hp attribute (structure unchanged)…
	if ans := q(t, e, "?.chwab.r(.A), A = hp"); !ans.Bool() {
		t.Error("chwab attribute hp should remain")
	}
	// …but no priced value survives.
	if ans := q(t, e, "?.chwab.r(.hp=P)"); ans.Bool() {
		t.Error("all chwab hp prices should be nulled")
	}
	// ource.hp exists but is empty.
	if ans := q(t, e, "?.ource.Y, Y = hp"); !ans.Bool() {
		t.Error("ource.hp relation should remain")
	}
	if ans := q(t, e, "?.ource.hp()"); ans.Bool() {
		t.Error("ource.hp should be empty")
	}
}

func TestDelStkWildcardStock(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	// No stock: delete every stock's closing price for the date.
	exec(t, e, "?.dbU.delStk(.date=3/2/85)")
	if ans := q(t, e, "?.euter.r(.date=3/2/85)"); ans.Bool() {
		t.Error("euter 3/2/85 rows should be gone")
	}
	if ans := q(t, e, "?.ource.hp(.date=3/2/85)"); ans.Bool() {
		t.Error("ource 3/2/85 rows should be gone")
	}
	if ans := q(t, e, "?.euter.r(.date=3/1/85)"); !ans.Bool() {
		t.Error("other dates remain")
	}
}

func TestRmStkUpdatesMetadata(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, rmStkClauses)
	exec(t, e, "?.dbU.rmStk(.stk=hp)")
	// euter: data deletion.
	if ans := q(t, e, "?.euter.r(.stkCode=hp)"); ans.Bool() {
		t.Error("euter hp rows gone")
	}
	// chwab: the attribute itself is gone from every tuple.
	if ans := q(t, e, "?.chwab.r(.A), A = hp"); ans.Bool() {
		t.Error("chwab attribute hp should be deleted")
	}
	// ource: the relation is gone.
	if ans := q(t, e, "?.ource.Y, Y = hp"); ans.Bool() {
		t.Error("ource relation hp should be deleted")
	}
	// Other stocks untouched in all three.
	if ans := q(t, e, "?.chwab.r(.ibm=P)"); !ans.Bool() {
		t.Error("ibm remains in chwab")
	}
	if ans := q(t, e, "?.ource.ibm(.clsPrice=P)"); !ans.Bool() {
		t.Error("ibm remains in ource")
	}
}

func TestInsStkInsertsEverywhere(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, insStkClauses)
	exec(t, e, "?.dbU.insStk(.stk=dec, .date=3/1/85, .price=80)")
	if ans := q(t, e, "?.euter.r(.stkCode=dec,.clsPrice=80)"); !ans.Bool() {
		t.Error("euter insert missing")
	}
	if ans := q(t, e, "?.chwab.r(.date=3/1/85,.dec=80)"); !ans.Bool() {
		t.Error("chwab attribute insert missing")
	}
	if ans := q(t, e, "?.ource.dec(.date=3/1/85,.clsPrice=80)"); !ans.Bool() {
		t.Error("ource relation insert missing")
	}
}

func TestInsStkRequiresAllArguments(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, insStkClauses)
	err := execErr(t, e, "?.dbU.insStk(.stk=dec, .date=3/1/85)")
	if !strings.Contains(err.Error(), "requires parameter") {
		t.Errorf("error = %v", err)
	}
	// Nothing changed (atomicity).
	if ans := q(t, e, "?.euter.r(.stkCode=dec)"); ans.Bool() {
		t.Error("failed call must not leave partial inserts")
	}
}

func TestBindingSignatures(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	addClauses(t, e, insStkClauses)
	del, ok := e.LookupProgram("dbU", "delStk")
	if !ok {
		t.Fatal("delStk not registered")
	}
	if len(del.Required()) != 0 {
		t.Errorf("delStk requires %v, want none (all parameters optional)", del.Required())
	}
	ins, ok := e.LookupProgram("dbU", "insStk")
	if !ok {
		t.Fatal("insStk not registered")
	}
	req := ins.Required()
	if len(req) != 3 {
		t.Errorf("insStk required = %v, want [D P S]", req)
	}
	if params := ins.Params(); len(params) != 3 {
		t.Errorf("insStk params = %v", params)
	}
}

func TestCallAPIDirect(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	res, err := e.Call("dbU", "delStk", map[string]object.Object{
		"S": object.Str("hp"),
		"D": object.NewDate(85, 3, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed() {
		t.Error("call should report changes")
	}
	if _, err := e.Call("dbU", "nosuch", nil); err == nil {
		t.Error("unknown program should error")
	}
}

func TestUnknownCallArgumentRejected(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	err := execErr(t, e, "?.dbU.delStk(.bogus=hp)")
	if !strings.Contains(err.Error(), "no parameter") {
		t.Errorf("error = %v", err)
	}
}

func TestProgramCallingProgram(t *testing.T) {
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	// A composite program reusing delStk (nonrecursive reuse, §7.1).
	mustClause(t, e, ".dbU.purgeDay(.date=D) -> .dbU.delStk(.date=D)")
	exec(t, e, "?.dbU.purgeDay(.date=3/1/85)")
	if ans := q(t, e, "?.euter.r(.date=3/1/85)"); ans.Bool() {
		t.Error("purgeDay should cascade through delStk")
	}
}

func TestRecursiveProgramRejected(t *testing.T) {
	e := newStockEngine(t)
	mustClause(t, e, ".dbU.loop(.x=X) -> .dbU.loop(.x=X)")
	err := execErr(t, e, "?.dbU.loop(.x=1)")
	if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error = %v", err)
	}
}

func TestMutuallyRecursiveProgramsRejected(t *testing.T) {
	e := newStockEngine(t)
	mustClause(t, e, ".dbU.ping(.x=X) -> .dbU.pong(.x=X)")
	mustClause(t, e, ".dbU.pong(.x=X) -> .dbU.ping(.x=X)")
	err := execErr(t, e, "?.dbU.ping(.x=1)")
	if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error = %v", err)
	}
}

func TestProgramFailureRollsBackAllClauses(t *testing.T) {
	e := newStockEngine(t)
	// First clause succeeds; the second fails (insert with unbound var).
	mustClause(t, e, ".dbU.bad(.stk=S) -> .euter.r-(.stkCode=S)")
	mustClause(t, e, ".dbU.bad(.stk=S) -> .euter.r+(.stkCode=S, .clsPrice=Missing)")
	before := relation(t, e, "euter", "r").Len()
	execErr(t, e, "?.dbU.bad(.stk=hp)")
	if got := relation(t, e, "euter", "r").Len(); got != before {
		t.Errorf("rollback across clauses failed: %d != %d", got, before)
	}
}

func TestClauseValidation(t *testing.T) {
	e := NewEngine()
	bad := []string{
		".dbU.f(.x>X) -> .b.r-(.k=X)",  // non-equality parameter
		".dbU.f(-.x=X) -> .b.r-(.k=X)", // signed parameter
	}
	for _, src := range bad {
		c, err := parseClauseHelper(src)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if err := e.AddClause(c); err == nil {
			t.Errorf("AddClause(%q) should fail", src)
		}
	}
}

// --- View updatability (§7.2) ---

func viewUpdateEngine(t testing.TB) *Engine {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	addRules(t, e, customizedViewRules)
	// The schema administrator's translations: an insert into the unified
	// view becomes a base insert into euter (the administrator's choice of
	// translation, §7.2); a delete cascades to all three bases.
	mustClause(t, e, ".dbI.p+(.date=D, .stk=S, .price=P) -> .euter.r+(.date=D, .stkCode=S, .clsPrice=P)")
	mustClause(t, e, ".dbI.p-(.date=D, .stk=S, .price=P) -> .euter.r-(.date=D, .stkCode=S, .clsPrice=P), .chwab.r(.date=D, .S-=P2), .ource.S-(.date=D)")
	// Customized-view updates translate through the unified view's
	// updaters (building view updates from other view updates).
	mustClause(t, e, ".dbO.S+(.date=D, .clsPrice=P) -> .dbI.p+(.date=D, .stk=S, .price=P)")
	mustClause(t, e, ".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) -> .dbI.p+(.date=D, .stk=S, .price=P)")
	return e
}

func TestViewInsertTranslatesToBase(t *testing.T) {
	e := viewUpdateEngine(t)
	exec(t, e, "?.dbI.p+(.date=3/9/85, .stk=dec, .price=91)")
	// Base euter received the fact.
	if ans := q(t, e, "?.euter.r(.stkCode=dec,.clsPrice=91)"); !ans.Bool() {
		t.Error("base insert missing")
	}
	// The view now shows it — and so do all customized views.
	if ans := q(t, e, "?.dbI.p(.stk=dec,.price=91)"); !ans.Bool() {
		t.Error("view should reflect its own update")
	}
	if ans := q(t, e, "?.dbO.dec(.date=3/9/85,.clsPrice=91)"); !ans.Bool() {
		t.Error("dbO should grow a dec relation")
	}
	if ans := q(t, e, "?.dbC.r(.date=3/9/85,.dec=91)"); !ans.Bool() {
		t.Error("dbC should show dec attribute")
	}
}

func TestViewDeleteTranslatesToAllBases(t *testing.T) {
	e := viewUpdateEngine(t)
	exec(t, e, "?.dbI.p-(.date=3/3/85, .stk=hp)")
	if ans := q(t, e, "?.dbI.p(.stk=hp, .date=3/3/85)"); ans.Bool() {
		t.Error("view should no longer show the fact")
	}
	if ans := q(t, e, "?.euter.r(.stkCode=hp,.date=3/3/85)"); ans.Bool() {
		t.Error("euter base delete missing")
	}
	if ans := q(t, e, "?.ource.hp(.date=3/3/85)"); ans.Bool() {
		t.Error("ource base delete missing")
	}
}

func TestHigherOrderViewUpdate(t *testing.T) {
	e := viewUpdateEngine(t)
	// Insert through a *data-dependent* view relation: dbO.newco does not
	// even exist yet; the update program creates the backing fact and the
	// next materialization grows the view schema.
	exec(t, e, "?.dbO.newco+(.date=3/9/85, .clsPrice=7)")
	if ans := q(t, e, "?.dbO.newco(.date=3/9/85,.clsPrice=7)"); !ans.Bool() {
		t.Error("dbO.newco should exist after the view update")
	}
	if ans := q(t, e, "?.euter.r(.stkCode=newco)"); !ans.Bool() {
		t.Error("base fact missing")
	}
}

func TestCustomizedViewUpdateViaUnifiedView(t *testing.T) {
	e := viewUpdateEngine(t)
	// dbE's updater routes through dbI's updater (program reuse).
	exec(t, e, "?.dbE.r+(.date=3/9/85, .stkCode=xx, .clsPrice=5)")
	if ans := q(t, e, "?.euter.r(.stkCode=xx,.clsPrice=5)"); !ans.Bool() {
		t.Error("cascaded translation missing")
	}
	if ans := q(t, e, "?.dbE.r(.stkCode=xx)"); !ans.Bool() {
		t.Error("dbE should reflect the update")
	}
}

func TestViewUpdateWithoutProgramForSign(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, unifiedViewRules)
	mustClause(t, e, ".dbI.p+(.date=D, .stk=S, .price=P) -> .euter.r+(.date=D, .stkCode=S, .clsPrice=P)")
	// Plus works; minus has no translator.
	exec(t, e, "?.dbI.p+(.date=3/9/85,.stk=aa,.price=1)")
	err := execErr(t, e, "?.dbI.p-(.stk=aa)")
	if !strings.Contains(err.Error(), "not updatable") {
		t.Errorf("error = %v", err)
	}
}

func TestViewUpdateUndeclaredAttributeRejected(t *testing.T) {
	e := viewUpdateEngine(t)
	err := execErr(t, e, "?.dbI.p+(.date=3/9/85, .stk=aa, .price=1, .volume=99)")
	if !strings.Contains(err.Error(), "volume") {
		t.Errorf("error = %v", err)
	}
}

func TestViewUpdateMixedWithQueryConjuncts(t *testing.T) {
	e := viewUpdateEngine(t)
	// Copy hp's 3/3/85 quote to a new listing via the view, using a query
	// conjunct to bind P first.
	exec(t, e, "?.dbI.p(.date=3/3/85,.stk=hp,.price=P), .dbI.p+(.date=3/3/85,.stk=hpclone,.price=P)")
	if ans := q(t, e, "?.euter.r(.stkCode=hpclone,.clsPrice=62)"); !ans.Bool() {
		t.Error("view-mediated copy failed")
	}
}

func TestViewDeleteWildcardCascades(t *testing.T) {
	// A view delete with an omitted component must cascade through
	// program reuse as a wildcard: dbO's minus translator passes its
	// unbound price variable into dbI's minus translator.
	e := viewUpdateEngine(t)
	mustClause(t, e, ".dbO.S-(.date=D, .clsPrice=P) -> .dbI.p-(.date=D, .stk=S, .price=P)")
	exec(t, e, "?.dbO.hp-(.date=3/1/85)")
	if ans := q(t, e, "?.dbO.hp(.date=3/1/85)"); ans.Bool() {
		t.Error("view should no longer show the 3/1/85 quote")
	}
	if ans := q(t, e, "?.euter.r(.stkCode=hp,.date=3/1/85)"); ans.Bool() {
		t.Error("base delete missing")
	}
	if ans := q(t, e, "?.dbO.hp(.date=3/2/85)"); !ans.Bool() {
		t.Error("other dates must survive")
	}
}

func TestProgramCallWildcardThroughCall(t *testing.T) {
	// Program-to-program calls pass unbound arguments as wildcards.
	e := newStockEngine(t)
	addClauses(t, e, delStkClauses)
	mustClause(t, e, ".dbU.purgeStock(.stk=S) -> .dbU.delStk(.stk=S, .date=D)")
	exec(t, e, "?.dbU.purgeStock(.stk=hp)")
	if ans := q(t, e, "?.euter.r(.stkCode=hp)"); ans.Bool() {
		t.Error("wildcard date should delete all hp quotes")
	}
	if ans := q(t, e, "?.euter.r(.stkCode=ibm)"); !ans.Bool() {
		t.Error("other stocks survive")
	}
}

// TestEmpMgrViewUpdateChoice reproduces §2's motivating example: the
// empMgr view joins emp and dept, so "change this employee's manager"
// has two translations — move the employee to another department, or
// change the department's manager. The paper's resolution: the schema
// administrator states the choice as an update program; both choices are
// expressible, and each behaves differently for colleagues.
func TestEmpMgrViewUpdateChoice(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		d := object.NewTuple()
		d.Put("emp", object.SetOf(
			object.TupleOf("name", "john", "dno", 10),
			object.TupleOf("name", "mary", "dno", 10),
			object.TupleOf("name", "ann", "dno", 20),
		))
		d.Put("dept", object.SetOf(
			object.TupleOf("dno", 10, "mgr", "boss"),
			object.TupleOf("dno", 20, "mgr", "chief"),
		))
		e.Base().Put("co", d)
		e.Invalidate()
		mustRule(t, e, ".v.empMgr+(.name=N, .mgr=M) <- .co.emp(.name=N, .dno=D), .co.dept(.dno=D, .mgr=M)")
		return e
	}

	// Choice 1: reassign the employee to a department led by the new
	// manager (affects only this employee).
	e1 := build()
	mustClause(t, e1, ".ops.setMgr(.name=N, .mgr=M) -> .co.dept(.dno=D2, .mgr=M), .co.emp-(.name=N), .co.emp+(.name=N, .dno=D2)")
	exec(t, e1, "?.ops.setMgr(.name=john, .mgr=chief)")
	if ans := q(t, e1, "?.v.empMgr(.name=john, .mgr=M)"); !ans.Contains(row("M", "chief")) {
		t.Errorf("john's manager:\n%s", ans)
	}
	if ans := q(t, e1, "?.v.empMgr(.name=mary, .mgr=M)"); !ans.Contains(row("M", "boss")) {
		t.Errorf("choice 1 must not touch mary:\n%s", ans)
	}

	// Choice 2: change the department's manager (affects every
	// colleague).
	e2 := build()
	mustClause(t, e2, ".ops.setMgr(.name=N, .mgr=M) -> .co.emp(.name=N, .dno=D), .co.dept-(.dno=D), .co.dept+(.dno=D, .mgr=M)")
	exec(t, e2, "?.ops.setMgr(.name=john, .mgr=chief)")
	if ans := q(t, e2, "?.v.empMgr(.name=john, .mgr=M)"); !ans.Contains(row("M", "chief")) {
		t.Errorf("john's manager:\n%s", ans)
	}
	if ans := q(t, e2, "?.v.empMgr(.name=mary, .mgr=M)"); !ans.Contains(row("M", "chief")) {
		t.Errorf("choice 2 must ALSO move mary:\n%s", ans)
	}
}
