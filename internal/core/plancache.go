package core

import (
	"container/list"

	"idl/internal/ast"
)

// Epoch-keyed plan cache (DESIGN.md §11). Plans are keyed by the shape
// fingerprint of the query plus the plan-relevant options — statements
// that differ only in their value literals share a plan — and stamped
// with the engine's catalog epoch: a plan checked at the read's epoch,
// or one with no schedule to choose, is reused outright; after an epoch
// bump a scheduled plan is re-ranked, and only a plan whose rank order
// flipped recompiles (fits).

// planCacheSize bounds the cache. LRU eviction: ad-hoc one-off queries
// age out, the repeated workload stays resident.
const planCacheSize = 256

// planKey identifies a plan: query structure plus the options that change
// compilation (index use changes access-path estimates; NoSchedule plans
// carry no ranks).
type planKey struct {
	fp         uint64
	useIndex   bool
	noSchedule bool
}

// planCache is an LRU map from planKey to compiled plans. It is owned by
// an Engine and accessed only under e.planMu (a dedicated mutex so the
// MVCC lock-free read path can consult the cache without touching e.mu;
// the locked mutation path acquires e.mu first, then e.planMu — never
// the reverse).
type planCache struct {
	m     map[planKey]*list.Element
	order *list.List // front = most recently used
}

type planEntry struct {
	key planKey
	pl  *queryPlan
}

func newPlanCache() *planCache {
	return &planCache{
		m:     make(map[planKey]*list.Element),
		order: list.New(),
	}
}

// get returns the cached plan for key, or nil; touch marks it most
// recently used (a peek leaves the recency order as it is).
func (c *planCache) get(key planKey, touch bool) *queryPlan {
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	if touch {
		c.order.MoveToFront(el)
	}
	return el.Value.(*planEntry).pl
}

// put inserts (or replaces) the plan for key, reporting whether an entry
// was evicted to make room.
func (c *planCache) put(key planKey, pl *queryPlan) (evicted bool) {
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).pl = pl
		c.order.MoveToFront(el)
		return false
	}
	c.m[key] = c.order.PushFront(&planEntry{key: key, pl: pl})
	if c.order.Len() > planCacheSize {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.m, back.Value.(*planEntry).key)
		return true
	}
	return false
}

// clear empties the cache.
func (c *planCache) clear() {
	c.m = make(map[planKey]*list.Element)
	c.order.Init()
}

// len returns the number of cached plans.
func (c *planCache) len() int { return c.order.Len() }

// PlanCacheStats snapshots the plan cache's counters.
type PlanCacheStats struct {
	Hits      uint64 // lookups answered from the cache (incl. re-ranked)
	Misses    uint64 // lookups that compiled a new plan
	Evictions uint64 // entries dropped by the LRU bound
	Size      int    // resident plans
	Epoch     uint64 // current catalog epoch
}

// PlanCacheStats reports the plan cache's hit/miss/eviction counters,
// resident size, and the current catalog epoch.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	epoch := e.Epoch()
	e.planMu.Lock()
	defer e.planMu.Unlock()
	return PlanCacheStats{
		Hits:      e.planHits,
		Misses:    e.planMisses,
		Evictions: e.planEvictions,
		Size:      e.plans.len(),
		Epoch:     epoch,
	}
}

// ClearPlanCache empties the plan cache (counters are preserved).
func (e *Engine) ClearPlanCache() {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	e.plans.clear()
}

// SetPlanCaching toggles the plan cache at runtime (the setter form of
// Options.NoPlanCache, for CLIs and tests). Disabling does not clear
// resident plans; they simply stop being consulted. The published MVCC
// head is dropped because snapshots capture the options they evaluate
// under.
func (e *Engine) SetPlanCaching(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts.NoPlanCache = !on
	e.invalidateHead()
}

// Epoch returns the catalog epoch: a counter bumped on every change to
// the universe or the rule set. Plans checked at the current epoch are
// reused without re-ranking.
func (e *Engine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Fingerprint exposes the shape fingerprint used as the plan
// cache key (for tests and tooling).
func Fingerprint(q *ast.Query) uint64 { return ast.Fingerprint(q) }
