package idl

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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

// TestPlanCacheDDLEpoch pins the invalidation contract against catalog
// DDL: every DDL call advances the epoch; DDL that does not touch a
// cached plan's dependencies revalidates it ("stale"), DDL that drops a
// relation the plan reads forces recompilation ("miss").
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
	// The new relation is not among the plan's dependencies: revalidate.
	if got := planCacheOutcome(t, db, query); got != "stale" {
		t.Fatalf("after unrelated DDL: outcome %q, want stale", got)
	}

	// Dropping the queried relation changes what the plan's ranks were
	// computed from: recompile.
	if err := cat.DropRelation("euter", "r"); err != nil {
		t.Fatal(err)
	}
	if got := planCacheOutcome(t, db, query); got != "miss" {
		t.Fatalf("after dropping the queried relation: outcome %q, want miss", got)
	}
}

// TestPlanCacheSyncEpoch pins invalidation across member syncs: a sync
// that installs a changed member snapshot advances the epoch and forces
// plans over that member's relations to recompile.
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
	// snapshot replaces the relation set, so the cached plan recompiles
	// and the answer reflects the member's new state.
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
	if ans.Plan == nil || ans.Plan.Cache != "miss" {
		t.Fatalf("post-sync plan outcome %v, want miss (snapshot replaced the relation)", ans.Plan)
	}
}
