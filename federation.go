package idl

import (
	"context"
	"fmt"

	"idl/internal/federation"
	"idl/internal/qlog"
)

// Federated member databases. A DB can mount autonomous members behind
// the federation.Source interface; their contents are synced into the
// universe as read-only snapshots before each query or update request.
// Failure semantics are governed by Options.BestEffort: fail fast (the
// default — an unreachable member aborts with a *SourceError, preserving
// single-site behavior) or degrade gracefully (the member evaluates as
// empty and the answer carries a DegradedReport). Updates always fail
// fast, and update requests that target a member snapshot are rejected —
// members are administered autonomously, not through the federation.

type (
	// Source is a member database: a named set of relations that can be
	// listed and scanned under a context.
	Source = federation.Source
	// FederationConfig tunes the resilience stack Resilient composes:
	// per-attempt timeout, retry count and backoff, breaker threshold and
	// cooldown.
	FederationConfig = federation.Config
	// DegradedReport describes a best-effort answer's degradation: every
	// member's health and the conjuncts that were skipped.
	DegradedReport = federation.Report
	// SourceHealth is one member's entry in a DegradedReport.
	SourceHealth = federation.SourceHealth
	// SourceError is the typed failure of a fail-fast federation
	// operation, naming the member and operation that failed.
	SourceError = federation.SourceError
)

// NewMemorySource wraps an in-memory database tuple (relation name →
// set) as a Source — the reference member implementation, and the base
// layer fault injection wraps in tests and the CLI's chaos mode.
func NewMemorySource(name string, db *Tuple) Source {
	return federation.NewMemorySource(name, db)
}

// Resilient wraps a source with the full resilience stack: circuit
// breaker outermost, then retries with capped exponential backoff, then
// a per-attempt timeout.
func Resilient(inner Source, cfg FederationConfig) Source {
	return federation.Resilient(inner, cfg)
}

// DefaultFederationConfig returns the production resilience defaults.
func DefaultFederationConfig() FederationConfig { return federation.DefaultConfig() }

// Mount attaches a member database under name (the source's own name
// when empty). Its relations appear after the next query or an explicit
// Sync. Member snapshots are read-only: update requests targeting them
// fail.
func (db *DB) Mount(name string, src Source) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if src != nil {
		// Breaker transitions surface as flight-recorder events (an open
		// triggers an auto-dump). The hook installs on the raw source:
		// the Meter wrapper below forwards probes but not hooks.
		if h, ok := src.(federation.BreakerHooker); ok {
			rec := db.rec
			h.SetBreakerHook(func(member string, from, to federation.BreakerState) {
				rec.BreakerTransition(member, from.String(), to.String())
			})
		}
		// Mounting turns metrics on: federated deployments want member
		// health visible, and the registry also meters every operation
		// against this source under federation.member.<name>.*.
		src = federation.Meter(name, src, db.metricsLocked())
	}
	if err := db.cat.Mount(name, src); err != nil {
		return err
	}
	db.engine.SetReadOnly(db.cat.Sources())
	db.configure(func(s *settings) { s.mounted = true })
	return nil
}

// Unmount detaches a member database and removes its snapshot.
func (db *DB) Unmount(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.Unmount(name); err != nil {
		return err
	}
	db.engine.SetReadOnly(db.cat.Sources())
	db.engine.SetUnavailable(nil)
	db.configure(func(s *settings) { s.mounted = db.cat.HasSources() })
	return nil
}

// Sources lists the mounted member database names, sorted.
func (db *DB) Sources() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.cat.Sources()
}

// Sync refreshes every member snapshot immediately, without running a
// query. In best-effort mode it returns the health report; in fail-fast
// mode an unreachable member returns a *SourceError.
func (db *DB) Sync(ctx context.Context) (*DegradedReport, error) {
	return db.syncSources(ctx, db.settings.Load().bestEffort)
}

// syncSources refreshes member snapshots under db.mu (fetches do not
// hold the engine lock, so concurrent queries proceed) and records which
// members are unavailable for Explain's skip marks. nil report when no
// sources are mounted — decided from the published settings, so an
// unfederated statement takes no lock here.
func (db *DB) syncSources(ctx context.Context, bestEffort bool) (*federation.Report, error) {
	if !db.settings.Load().mounted {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// The mount set is re-checked under db.mu: Mount/Unmount mutate the
	// catalog under the same lock, and a concurrent Unmount must not race
	// the read.
	if !db.cat.HasSources() {
		return nil, nil
	}
	op := db.rec.Begin(qlog.KindSync)
	rep, err := db.cat.SyncSources(ctx, bestEffort)
	if err != nil {
		op.End(err)
		return nil, err
	}
	db.lastReport = rep
	db.engine.SetUnavailable(rep.Unavailable())
	if op != nil {
		down := rep.Unavailable()
		op.SetText(fmt.Sprintf("members=%d unreachable=%d", len(rep.Sources), len(down)))
		if rep.Degraded() {
			op.SetDegraded(rep.String(), nil)
		}
		op.End(nil)
	}
	return rep, nil
}
