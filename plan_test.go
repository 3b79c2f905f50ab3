package idl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"idl/internal/qlog"
)

// Facade-level planner tests: the Prepare API, the catalog epoch, and
// plan-cache invalidation across the operations a driver actually
// performs — DDL through the catalog and member syncs through the
// federation layer.

func planCacheOutcome(t *testing.T, db *DB, src string) string {
	t.Helper()
	ans, err := db.Query(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	if ans.Plan == nil {
		t.Fatalf("query %q: no plan info attached", src)
	}
	return ans.Plan.Cache
}

// TestEveryReadIsPlanned pins the one plan route: whatever observes a
// read — a tracer, EXPLAIN ANALYZE, the NoSchedule ablation — it runs a
// plan from the planner and reports it, a repeated shape is served from
// the cache, and EXPLAIN of a cached shape reuses the cached plan.
func TestEveryReadIsPlanned(t *testing.T) {
	const src = "?.euter.r(.stkCode=S, .clsPrice>100)"
	db := Open()
	seedStocks(t, db)
	db.EnableTracing(8)
	if got := planCacheOutcome(t, db, src); got != "miss" {
		t.Fatalf("first traced read: outcome %q, want miss", got)
	}
	if got := planCacheOutcome(t, db, src); got != "hit" {
		t.Fatalf("second traced read: outcome %q, want hit", got)
	}
	prep, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := prep.Query(); err != nil || ans.Plan == nil {
		t.Fatalf("prepared traced read: plan %v, err %v", ans, err)
	}
	if _, ans, err := db.ExplainAnalyzeCtx(context.Background(), src); err != nil || ans.Plan == nil || ans.Plan.Cache != "hit" {
		t.Fatalf("explain analyze: answer %v, err %v; want a cache hit", ans, err)
	}
	// EXPLAIN, of a cached shape or a new one, counts no lookup and
	// caches no plan.
	before := db.PlanCacheStats()
	for _, q := range []string{src, "?.euter.r(.stkCode=S, .date=D)"} {
		if _, err := db.Explain(q); err != nil {
			t.Fatal(err)
		}
		if got := db.PlanCacheStats(); got != before {
			t.Fatalf("explain %q moved the plan cache: %+v -> %+v", q, before, got)
		}
	}

	opts := DefaultOptions()
	opts.NoSchedule = true
	ablation := OpenWithOptions(opts)
	seedStocks(t, ablation)
	planCacheOutcome(t, ablation, src)
	if got := planCacheOutcome(t, ablation, src); got != "hit" {
		t.Fatalf("second NoSchedule read: outcome %q, want hit", got)
	}
}

// TestLoggedReadLeavesPlanCache pins that the event log observes a read
// without changing it: ad hoc and prepared reads leave the same plan-cache
// statistics with the log attached as without it, and each event's plan
// digest is the rendering of the plan that ran.
func TestLoggedReadLeavesPlanCache(t *testing.T) {
	const src = "?.euter.r(.stkCode=S, .clsPrice>100)"
	run := func(log io.Writer) PlanCacheStats {
		db := Open()
		seedStocks(t, db)
		if log != nil {
			db.SetEventLog(log)
		}
		prep, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			// A literal sibling first: src's ad hoc reads then run the
			// plan compiled for it, and must still log src's own digest.
			planCacheOutcome(t, db, "?.euter.r(.stkCode=S, .clsPrice>150)")
			planCacheOutcome(t, db, src)
			planCacheOutcome(t, db, "?.euter.r(.stkCode=S, .date=D)")
			if _, err := prep.Query(); err != nil {
				t.Fatal(err)
			}
		}
		return db.PlanCacheStats()
	}
	var log bytes.Buffer
	if plain, logged := run(nil), run(&log); plain != logged {
		t.Fatalf("plan cache without the event log %+v, with it %+v", plain, logged)
	}

	db := Open()
	seedStocks(t, db)
	want, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	dec := json.NewDecoder(&log)
	for dec.More() {
		var ev struct {
			Kind       string `json:"msg"`
			Text       string `json:"text"`
			PlanDigest string `json:"plan_digest"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != qlog.KindQuery || ev.Text != prep.Text() {
			continue
		}
		events++
		if ev.PlanDigest != qlog.Digest(want) {
			t.Fatalf("event plan digest %s, want the digest of\n%s", ev.PlanDigest, want)
		}
	}
	if events != 4 {
		t.Fatalf("%d logged reads of %q, want 4 (2 ad hoc, 2 prepared)", events, src)
	}
}

func TestPrepareAPI(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	p, err := db.Prepare("?.euter.r(.stkCode=hp, .clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Text() == "" {
		t.Fatal("prepared statement has no canonical text")
	}
	ans, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Fatalf("prepared query: %d rows, want 3", ans.Len())
	}
	// A mutation through Exec must be visible on the next execution.
	if _, err := db.Exec("?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)"); err != nil {
		t.Fatal(err)
	}
	ans, err = p.Query()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Fatalf("prepared query after insert: %d rows, want 4", ans.Len())
	}
	if _, err := db.Prepare("?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)"); err == nil {
		t.Fatal("Prepare accepted an update request")
	}
}

// prepared prepares src on db.
func prepared(t *testing.T, db *DB, src string) *Prepared {
	t.Helper()
	p, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runPrepared executes p.
func runPrepared(t *testing.T, p *Prepared) *Result {
	t.Helper()
	ans, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// mustExec runs an update request on db.
func mustExec(t *testing.T, db *DB, src string) {
	t.Helper()
	if _, err := db.Exec(src); err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
}

// TestPreparedQueryStaysFresh pins a prepared statement across writes:
// every execution answers the current data, a one-conjunct plan is reused
// as it is, and a two-conjunct plan recompiles only when a write flips
// its rank order. A prepared statement reads through the shared plan
// cache: Prepare compiles nothing, so the first execution of a shape
// nothing has read yet compiles it ("miss").
func TestPreparedQueryStaysFresh(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	pq := prepared(t, db, "?.euter.r(.stkCode=hp, .clsPrice=P)")
	if ans := runPrepared(t, pq); ans.Len() != 3 || ans.Plan.Cache != "miss" {
		t.Fatalf("first prepared run: %d rows outcome %q, want 3 rows / miss", ans.Len(), ans.Plan.Cache)
	}

	// Mutating the queried relation must be visible on the next execution
	// with the plan as it is. A read of the same shape with another
	// literal in between runs the prepared statement's plan and leaves its
	// own literal in place.
	if got := planCacheOutcome(t, db, "?.euter.r(.stkCode=ibm, .clsPrice=P)"); got != "hit" {
		t.Fatalf("sibling read: outcome %q, want hit on the prepared statement's plan", got)
	}
	mustExec(t, db, "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)")
	if ans := runPrepared(t, pq); ans.String() != "P\n50\n55\n62\n70" || ans.Plan.Cache != "hit" {
		t.Fatalf("after relevant update: %q outcome %q, want hp's four prices / hit", ans, ans.Plan.Cache)
	}
	mustExec(t, db, "?.ource.hp+(.date=3/9/85, .clsPrice=70)")
	if ans := runPrepared(t, pq); ans.Plan.Cache != "hit" {
		t.Fatalf("after unrelated update: outcome %q, want hit", ans.Plan.Cache)
	}

	// The join of TestPlanCacheOutcomes: chwab.r first on the 3-3 tie.
	// Its first execution compiles the plan the writes below check.
	join := prepared(t, db, "?.chwab.r(.date=D, .hp=P), .ource.ibm(.date=D, .clsPrice=Q)")
	if ans := runPrepared(t, join); ans.Plan.Cache != "miss" || ans.Len() != 3 {
		t.Fatalf("first join run: outcome %q, %d rows, want miss and 3", ans.Plan.Cache, ans.Len())
	}
	mustExec(t, db, "?.ource.ibm+(.date=3/4/85, .clsPrice=170)")
	if ans := runPrepared(t, join); ans.Plan.Cache != "stale" || ans.Len() != 3 {
		t.Fatalf("after an order-keeping update: outcome %q, %d rows, want stale and 3", ans.Plan.Cache, ans.Len())
	}
	mustExec(t, db, "?.chwab.r+(.date=3/4/85, .hp=70, .ibm=170, .sun=200), .chwab.r+(.date=3/5/85, .hp=71, .ibm=171, .sun=201)")
	if ans := runPrepared(t, join); ans.Plan.Cache != "miss" || ans.Len() != 4 {
		t.Fatalf("after an order-flipping update: outcome %q, %d rows, want miss and 4", ans.Plan.Cache, ans.Len())
	}
	if ans := runPrepared(t, join); ans.Plan.Cache != "hit" {
		t.Fatalf("recompiled prepared plan: outcome %q, want hit", ans.Plan.Cache)
	}
}

func TestPrepareRejectsUpdates(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	const src = "?.euter.r+(.date=3/9/85, .stkCode=hp, .clsPrice=70)"
	if _, err := db.Prepare(src); err == nil || !strings.Contains(err.Error(), "is an update request; use Exec") {
		t.Fatalf("Prepare(%q): %v, want an update-request error", src, err)
	}
}

// TestPreparedSharesShapePlan: a prepared statement is its shape with its
// own literals pinned. It shares one plan and one shape-table entry with
// the ad hoc reads of its shape, recompiles once after the plan cache is
// cleared, keeps answering with its own literals after the table has let
// its shape go, and compiles per execution with the cache off.
func TestPreparedSharesShapePlan(t *testing.T) {
	const src = "?.euter.r(.stkCode=S, .clsPrice>200)"
	const sun = "S\nsun"
	db := Open()
	seedStocks(t, db)
	misses := db.shapes.Misses()
	p := prepared(t, db, src)
	if ans := runPrepared(t, p); ans.String() != sun {
		t.Fatalf("prepared run: %q, want %q", ans, sun)
	}
	for _, sib := range []string{"?.euter.r(.stkCode=S, .clsPrice>100)", "?.euter.r(.stkCode=S, .clsPrice>150)"} {
		if got := planCacheOutcome(t, db, sib); got != "hit" {
			t.Fatalf("%s: outcome %q, want hit", sib, got)
		}
	}
	if st := db.PlanCacheStats(); st.Size != 1 {
		t.Fatalf("prepared and ad hoc reads of one shape hold %d plans, want 1", st.Size)
	}
	if n := db.shapes.Misses() - misses; n != 1 {
		t.Fatalf("prepared and ad hoc reads of one shape parsed %d times, want 1", n)
	}

	db.ClearPlanCache()
	for _, want := range []string{"miss", "hit"} {
		if ans := runPrepared(t, p); ans.String() != sun || ans.Plan.Cache != want {
			t.Fatalf("after ClearPlanCache: %q outcome %q, want %q / %s", ans, ans.Plan.Cache, sun, want)
		}
	}

	// Parse distinct shapes until a sibling of src misses the table: its
	// shape was displaced. Parsing stores a shape and runs nothing.
	const sibling = "?.euter.r(.stkCode=S, .clsPrice>100)"
	for round := 0; shapeHit(t, db, sibling); round++ {
		if round == 64 {
			t.Fatal("shape never displaced from the table")
		}
		for i := range 1024 {
			if _, err := db.shapes.Parse(fmt.Sprintf("?.euter.r(.a%d_%d=P)", round, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ans := runPrepared(t, p); ans.String() != sun {
		t.Fatalf("prepared run after its shape left the table: %q, want %q", ans, sun)
	}
	if p.Text() != src {
		t.Fatalf("prepared text %q, want %q", p.Text(), src)
	}

	// With the cache off it compiles on every execution, like an ad hoc
	// read.
	db.SetPlanCaching(false)
	for range 2 {
		if ans := runPrepared(t, p); ans.String() != sun || ans.Plan.Cache != "cold" {
			t.Fatalf("uncached prepared run: %q outcome %q, want %q / cold", ans, ans.Plan.Cache, sun)
		}
	}
}

// TestPlanCacheDDLEpoch pins the plan contract against catalog DDL: every
// DDL call advances the epoch, and a one-conjunct plan, which has no
// schedule to choose, is reused as it is ("hit") whether the DDL creates
// an unrelated relation or drops the one it reads — and then answers
// empty, because names resolve against the snapshot each read pins.
func TestPlanCacheDDLEpoch(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	cat := db.Catalog()
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"

	planCacheOutcome(t, db, query) // compile and cache
	if got := planCacheOutcome(t, db, query); got != "hit" {
		t.Fatalf("warm run: outcome %q, want hit", got)
	}

	before := db.CatalogEpoch()
	if err := cat.CreateRelation("euter", "aux"); err != nil {
		t.Fatal(err)
	}
	if after := db.CatalogEpoch(); after <= before {
		t.Fatalf("DDL did not advance the catalog epoch: %d -> %d", before, after)
	}
	if cat.Epoch() != db.CatalogEpoch() {
		t.Fatal("catalog and DB disagree on the epoch")
	}
	if got := planCacheOutcome(t, db, query); got != "hit" {
		t.Fatalf("after unrelated DDL: outcome %q, want hit", got)
	}

	if err := cat.DropRelation("euter", "r"); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Plan.Cache != "hit" || ans.Len() != 0 {
		t.Fatalf("after dropping the queried relation: outcome %q, %d rows, want hit and none", ans.Plan.Cache, ans.Len())
	}
}

// TestPlanCacheSyncEpoch pins plans across member syncs: a sync that
// installs a changed member snapshot advances the epoch, and a
// one-conjunct plan over that member's relation is reused as it is and
// answers the new snapshot.
func TestPlanCacheSyncEpoch(t *testing.T) {
	db := Open()
	member := Tup("r", SetOf(
		Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50),
		Tup("date", Date(85, 3, 2), "stkCode", "hp", "clsPrice", 55),
	))
	if err := db.Mount("euter", NewMemorySource("euter", member)); err != nil {
		t.Fatal(err)
	}
	const query = "?.euter.r(.stkCode=hp, .clsPrice=P)"
	planCacheOutcome(t, db, query) // sync + compile

	// Mutate the member behind the federation's back, then sync: the new
	// snapshot replaces the relation set, and the answer reflects the
	// member's new state.
	rel, _ := member.Get("r")
	rel.(*Set).Add(Tup("date", Date(85, 3, 3), "stkCode", "hp", "clsPrice", 62))
	before := db.CatalogEpoch()
	if _, err := db.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := db.CatalogEpoch(); after <= before {
		t.Fatalf("sync with changed member did not advance the epoch: %d -> %d", before, after)
	}
	ans, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 3 {
		t.Fatalf("post-sync answer: %d rows, want 3 (new member tuple visible)", ans.Len())
	}
	if ans.Plan == nil || ans.Plan.Cache != "hit" {
		t.Fatalf("post-sync plan outcome %v, want hit (a one-conjunct plan has no schedule to check)", ans.Plan)
	}
}
