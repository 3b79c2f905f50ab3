package catalog

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/obs"
	"idl/internal/qlog"
)

// Federation support: a catalog can mount member databases that live
// behind a federation.Source instead of in local memory. Mounted members
// are synced into the universe as snapshots before queries run; the
// resilience stack (timeouts, retries, circuit breakers) lives in the
// Source implementation, composed by the caller.

// Mount attaches a federated member database under name (the source's
// own name when name is empty). The member's contents appear in the
// universe only after the first SyncSources. It fails if a local
// database or another source already uses the name.
func (c *Catalog) Mount(name string, src federation.Source) error {
	if src == nil {
		return fmt.Errorf("catalog: cannot mount a nil source")
	}
	if name == "" {
		name = src.Name()
	}
	if name == "" {
		return fmt.Errorf("catalog: source database name must not be empty")
	}
	if c.universe.Has(name) {
		return fmt.Errorf("catalog: database %q already exists", name)
	}
	if _, dup := c.sources[name]; dup {
		return fmt.Errorf("catalog: source %q is already mounted", name)
	}
	if c.sources == nil {
		c.sources = map[string]federation.Source{}
	}
	c.sources[name] = src
	c.membersG.Set(int64(len(c.sources)))
	return nil
}

// Unmount detaches a federated member and removes its snapshot from the
// universe.
func (c *Catalog) Unmount(name string) error {
	if _, ok := c.sources[name]; !ok {
		return fmt.Errorf("catalog: no source %q is mounted", name)
	}
	delete(c.sources, name)
	c.membersG.Set(int64(len(c.sources)))
	removed := false
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	c.applyUniverse(func(u *object.Tuple) bool {
		removed = u.Delete(name)
		return removed
	})
	if removed {
		return c.logSnapshot(name, nil)
	}
	return nil
}

// Sources lists the mounted member database names, sorted.
func (c *Catalog) Sources() []string {
	names := make([]string, 0, len(c.sources))
	for n := range c.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasSources reports whether any member database is mounted.
func (c *Catalog) HasSources() bool { return len(c.sources) > 0 }

// SetApplier installs the hook through which source snapshots reach the
// universe. Wire it to Engine.UpdateBase so installs are coherent with
// concurrent queries; without one, mutations apply directly and fire
// onChange.
func (c *Catalog) SetApplier(fn func(func(base *object.Tuple) bool)) {
	c.apply = fn
}

func (c *Catalog) logSnapshot(name string, snap *object.Tuple) error {
	if c.logSnap == nil {
		return nil
	}
	return c.logSnap(name, snap)
}

// SetMetrics publishes sync health into a registry:
// federation.sync.{count,failures,latency} for the sync pass itself and
// federation.{members,unavailable} gauges for the current mount state.
// A nil registry disables publication.
func (c *Catalog) SetMetrics(r *obs.Registry) {
	c.metrics = r
	if r == nil {
		c.syncCount, c.syncFailures, c.syncLatency = nil, nil, nil
		c.membersG, c.unavailableG = nil, nil
		return
	}
	c.syncCount = r.Counter("federation.sync.count")
	c.syncFailures = r.Counter("federation.sync.failures")
	c.syncLatency = r.Histogram("federation.sync.latency")
	c.membersG = r.Gauge("federation.members")
	c.unavailableG = r.Gauge("federation.unavailable")
	c.membersG.Set(int64(len(c.sources)))
}

// SetTracer wires a live reader of the owner's span tracer (usually
// Engine.Tracer, so enabling/disabling tracing on the DB takes effect
// here without further plumbing). When tracing is on, every member fetch
// emits a "federation.fetch" root span carrying the member name, the
// caller's trace ID, and the fetch outcome.
func (c *Catalog) SetTracer(fn func() *obs.Tracer) {
	c.tracer = fn
}

func (c *Catalog) applyUniverse(fn func(*object.Tuple) bool) {
	if c.apply != nil {
		c.apply(fn)
		return
	}
	if fn(c.universe) {
		c.changed()
	}
}

// SetFetchConcurrency caps how many member fetches SyncSources may run
// concurrently. 0 and 1 (the default) fetch members one at a time in
// sorted-name order; higher values overlap the fetches — member latency
// then costs the slowest member rather than the sum — while error
// selection, health reports and snapshot installation stay in sorted
// order, so results are independent of fetch completion order. Values
// below zero clamp to zero.
func (c *Catalog) SetFetchConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	c.fetchConc = n
}

// FetchConcurrency returns the configured fetch concurrency cap.
func (c *Catalog) FetchConcurrency() int { return c.fetchConc }

// fetchResult is one member's sync outcome, recorded by the fetch phase
// and interpreted by SyncSources' sequential post-pass.
type fetchResult struct {
	snap     *object.Tuple
	err      error
	breaker  string
	attempts int
}

// fetchAll fetches the named members, concurrently when the configured
// concurrency and the member count both exceed one. Results are indexed
// by the caller's name order; breaker state is probed right after each
// member's own fetch completes. In sequential fail-fast mode the fetch
// loop stops at the first error — exactly the pre-concurrency behavior —
// and the truncated slice ends with the failing member. Concurrent
// fail-fast still fetches every member (the goroutines are already in
// flight); the post-pass picks the first failure in name order.
func (c *Catalog) fetchAll(ctx context.Context, names []string, failFast bool) []fetchResult {
	results := make([]fetchResult, len(names))
	fetch := func(i int) {
		src := c.sources[names[i]]
		r := &results[i]
		var span *obs.Span
		if c.tracer != nil {
			if t := c.tracer(); t != nil {
				span = t.Start("federation.fetch")
				span.SetStr("member", names[i])
				if tid := qlog.TraceID(ctx); tid != "" {
					span.SetStr("trace", tid)
				}
			}
		}
		r.snap, r.err = federation.Fetch(ctx, src)
		r.breaker, r.attempts = federation.Probe(src)
		if span != nil {
			span.SetStr("breaker", r.breaker).SetInt("attempts", int64(r.attempts))
			if r.err != nil {
				span.SetStr("err", r.err.Error())
			}
			span.End()
		}
	}
	conc := c.fetchConc
	if conc > len(names) {
		conc = len(names)
	}
	if conc < 2 {
		for i := range names {
			fetch(i)
			if failFast && results[i].err != nil {
				return results[:i+1]
			}
		}
		return results
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fetch(i)
		}(i)
	}
	wg.Wait()
	return results
}

// SyncSources refreshes every mounted member's snapshot: fetches happen
// outside any engine lock (concurrently when SetFetchConcurrency allows),
// then all universe changes install in one applier call. In fail-fast
// mode (bestEffort=false) the first unreachable member — first in sorted
// name order, whatever order the fetches completed in — aborts the sync
// with its *federation.SourceError. In best-effort mode an unreachable
// member's snapshot is removed — the member evaluates as empty — and the
// returned report records every member's health. An unchanged snapshot is
// not reinstalled, so view caches stay warm across healthy syncs.
func (c *Catalog) SyncSources(ctx context.Context, bestEffort bool) (*federation.Report, error) {
	names := c.Sources()
	report := &federation.Report{}
	if len(names) == 0 {
		return report, nil
	}
	var start time.Time
	if c.syncCount != nil {
		start = time.Now()
		c.syncCount.Inc()
		defer func() { c.syncLatency.Observe(time.Since(start)) }()
	}
	results := c.fetchAll(ctx, names, !bestEffort)
	snaps := make(map[string]*object.Tuple, len(names))
	for i, name := range names {
		if i >= len(results) {
			break
		}
		res := results[i]
		health := federation.SourceHealth{Name: name, Breaker: res.breaker, Attempts: res.attempts}
		if res.err != nil {
			if c.metrics != nil {
				c.metrics.Counter("federation.member." + name + ".fetch_errors").Inc()
			}
			if !bestEffort {
				c.syncFailures.Inc()
				return nil, res.err
			}
			if serr, ok := res.err.(*federation.SourceError); ok {
				health.Err = fmt.Sprintf("%s: %v", serr.Op, serr.Err)
			} else {
				health.Err = res.err.Error()
			}
		} else {
			snaps[name] = res.snap
		}
		report.Sources = append(report.Sources, health)
	}
	c.unavailableG.Set(int64(len(report.Unavailable())))
	// installed records what actually changed, in sorted-name order, for
	// the durability hook: unchanged snapshots are neither reinstalled
	// nor re-logged.
	type install struct {
		name string
		snap *object.Tuple // nil = removed
	}
	var installed []install
	// Fetches ran outside the commit lock; the install and its log records
	// are one critical section of it.
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	c.applyUniverse(func(u *object.Tuple) bool {
		changed := false
		for _, name := range names {
			snap, ok := snaps[name]
			if !ok {
				// Unreachable member: drop the stale snapshot so the
				// best-effort answer is exactly the full answer restricted
				// to live members.
				if u.Delete(name) {
					changed = true
					installed = append(installed, install{name, nil})
				}
				continue
			}
			if old, ok := u.Get(name); ok && old.Equal(snap) {
				continue
			}
			u.Put(name, snap)
			changed = true
			installed = append(installed, install{name, snap})
		}
		return changed
	})
	for _, in := range installed {
		if err := c.logSnapshot(in.name, in.snap); err != nil {
			return nil, err
		}
	}
	return report, nil
}
