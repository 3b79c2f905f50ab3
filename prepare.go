package idl

import (
	"context"

	"idl/internal/core"
	"idl/internal/parser"
)

// Compiled query plans. Every read runs through the engine's
// epoch-keyed plan cache, keyed by statement shape: statements that
// differ only in their literals share one plan (DESIGN.md §11). Prepare
// binds a statement once: the returned Prepared holds the statement's
// shape (DESIGN.md §20) with its own literals pinned, and each execution
// is the read an ad hoc query of that shape makes, minus the lexing —
// the same plan-cache lookup, and the same schedule check against the
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

// Prepared is a read-only statement bound once by DB.Prepare and
// executable many times. It holds the statement's shape, so it keeps
// answering with its own literals after the shape table has let the
// shape go; its plan lives in the DB's plan cache like an ad hoc read's.
// It is safe for concurrent use with other DB operations; each execution
// synchronizes on the engine like an ad hoc query.
type Prepared struct {
	db *DB
	st parser.Stmt
}

// Prepare parses a read-only query for repeated execution, storing its
// shape in the DB's shape table. Update requests, program calls
// included, are rejected — preparation is for the query side only.
func (db *DB) Prepare(src string) (*Prepared, error) {
	st, err := db.shapes.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := db.readOnly(src, st.Query); err != nil {
		return nil, err
	}
	return &Prepared{db: db, st: st}, nil
}

// Text returns the canonical rendering of the prepared statement.
func (p *Prepared) Text() string { return p.st.String() }

// Query executes the prepared statement against the current universe.
func (p *Prepared) Query() (*Result, error) {
	return p.QueryCtx(context.Background())
}

// QueryCtx is Query under a context. The execution takes the path of an
// ad hoc query of the statement — member sync, flight-recorder op, plan
// cache, degradation report — with the statement already bound.
func (p *Prepared) QueryCtx(ctx context.Context) (*Result, error) {
	return p.db.query(ctx, p.st)
}
