package idl

import (
	"context"

	"idl/internal/ast"
	"idl/internal/core"
	"idl/internal/parser"
)

// Compiled query plans. Every Query/QueryCtx already runs through the
// engine's epoch-keyed plan cache — repeated statements reuse their
// compiled plan automatically. Prepare makes the compile-once contract
// explicit: the returned Prepared holds a private plan that skips even
// the cache lookup, and each execution checks its schedule against the
// snapshot it reads, so prepared answers are always as fresh as ad hoc
// ones.

// PlanInfo reports how a query's plan was obtained: Cache is "hit" (ran
// with no plan work), "stale" (re-ranked after a catalog change, and the
// order held), "miss" (compiled), or "cold" (cache disabled); CompileNS
// is the compile time when this call compiled. Attached to every query's
// Result.Plan.
type PlanInfo = core.PlanInfo

// PlanCacheStats snapshots the engine's plan-cache counters: hits
// (including re-ranked "stale" plans), misses, LRU evictions, resident
// size, and the current catalog epoch.
type PlanCacheStats = core.PlanCacheStats

// PlanCacheStats reports the plan cache's behavior so far.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.engine.PlanCacheStats() }

// ClearPlanCache empties the plan cache; counters are preserved. Plans
// recompile on next use.
func (db *DB) ClearPlanCache() { db.engine.ClearPlanCache() }

// SetPlanCaching toggles the plan cache at runtime (the CLI's
// -no-plan-cache). With caching off every query compiles a fresh plan;
// answers are unchanged, only compile work repeats.
func (db *DB) SetPlanCaching(on bool) { db.engine.SetPlanCaching(on) }

// CatalogEpoch returns the catalog epoch: a counter that advances on
// every mutation of the universe — DML, DDL, view/rule registration,
// member-snapshot installs. It versions the plan cache and the catalog
// statistics: after it moves, a plan with a schedule to choose is
// re-ranked, and recompiled only when its rank order flipped.
func (db *DB) CatalogEpoch() uint64 { return db.engine.Epoch() }

// Prepared is a query compiled once by DB.Prepare and executable many
// times. It is safe for concurrent use with other DB operations; each
// execution synchronizes on the engine like an ad hoc query.
type Prepared struct {
	db *DB
	q  *ast.Query
	pq *core.PreparedQuery
}

// Prepare parses and compiles a read-only query for repeated execution.
// Update requests, program calls included, are rejected — preparation is
// for the query side only.
func (db *DB) Prepare(src string) (*Prepared, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if err := db.readOnly(src, q); err != nil {
		return nil, err
	}
	pq, err := db.engine.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, q: q, pq: pq}, nil
}

// Text returns the canonical rendering of the prepared statement.
func (p *Prepared) Text() string { return p.q.String() }

// Query executes the prepared plan against the current universe.
func (p *Prepared) Query() (*Result, error) {
	return p.QueryCtx(context.Background())
}

// QueryCtx is Query under a context. The execution takes the same path
// as an ad hoc query — member sync, flight-recorder op, degradation
// report — except that planning reuses the prepared plan (re-ranking or
// recompiling it when the catalog epoch moved).
func (p *Prepared) QueryCtx(ctx context.Context) (*Result, error) {
	return p.db.query(ctx, parser.Stmt{Query: p.q}, p.pq)
}
