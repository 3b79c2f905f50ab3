package server_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idl"
	"idl/internal/server"
)

// TestConcurrentStress hammers the server from many client goroutines
// with a mixed query/exec/prepared workload while a churn goroutine
// mounts, syncs and unmounts a federated member — the exact interleaving
// the admission gate, the session table and the facade's sync path must
// survive. Run under -race this is the server's data-race battery; the
// assertions check no request failed, no session state was dropped, and
// the server's request counter accounts for every request sent.
func TestConcurrentStress(t *testing.T) {
	db := demoDB(t)
	db.EnableInsights(idl.InsightsConfig{})
	srv, ts := newServer(t, db, server.Config{
		MaxInflight:    64,
		TenantInflight: 64,
		RequestTimeout: 30 * time.Second,
	})

	const (
		clients = 8
		rounds  = 25
	)

	// Membership churn: mount/sync/unmount an extra member concurrently
	// with the request load, so snapshots install and drop mid-flight.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		src := &staticSource{name: "churn"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Mount("churn", src); err != nil {
				t.Errorf("mount: %v", err)
				return
			}
			if _, err := db.Sync(context.Background()); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			if err := db.Unmount("churn"); err != nil {
				t.Errorf("unmount: %v", err)
				return
			}
		}
	}()

	// The unified view the queries hit, registered before any client runs.
	for _, rule := range []string{
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
	} {
		if err := db.DefineView(rule); err != nil {
			t.Fatalf("view: %v", err)
		}
	}

	var sent atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			c := server.NewClient(ts.URL)
			c.Tenant = fmt.Sprintf("tenant%d", g)

			// Each client prepares once and reuses the statement all run —
			// if the session table drops or cross-wires state under load,
			// these calls start failing.
			p, err := c.Prepare(ctx, "?.euter.r(.stkCode=S, .clsPrice>100)")
			if err != nil {
				t.Errorf("client %d prepare: %v", g, err)
				return
			}
			sent.Add(1)
			for i := 0; i < rounds; i++ {
				if _, err := c.Query(ctx, "?.dbI.p(.stk=S, .price>100)"); err != nil {
					t.Errorf("client %d query %d: %v", g, i, err)
					return
				}
				if _, err := c.ExecPrepared(ctx, p.ID); err != nil {
					t.Errorf("client %d prepared %d: %v", g, i, err)
					return
				}
				stmt := fmt.Sprintf("?.euter.r+(.date=9/9/85, .stkCode=t%dr%d, .clsPrice=%d)", g, i, i+1)
				if _, err := c.Exec(ctx, stmt); err != nil {
					t.Errorf("client %d exec %d: %v", g, i, err)
					return
				}
				sent.Add(3)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if t.Failed() {
		return
	}
	// Every request was admitted and succeeded: the counter matches the
	// exact number of requests the clients sent, and none shed or errored.
	reg := db.Metrics()
	if got := reg.Counter("server.requests").Value(); got != sent.Load() {
		t.Errorf("server.requests = %d, want %d", got, sent.Load())
	}
	if got := reg.Counter("server.shed").Value(); got != 0 {
		t.Errorf("server.shed = %d, want 0", got)
	}
	if got := reg.Counter("server.errors").Value(); got != 0 {
		t.Errorf("server.errors = %d, want 0", got)
	}
	// No dropped session state: one live session per client, each still
	// holding its prepared statement.
	if got := srv.Sessions(); got != clients {
		t.Errorf("sessions = %d, want %d", got, clients)
	}
	// Digest accounting: the query digests' call counts must sum to the
	// number of evaluating statements the engine saw (server requests
	// minus the prepare calls, which parse without evaluating).
	digests, err := db.Statements()
	if err != nil {
		t.Fatalf("statements: %v", err)
	}
	var calls uint64
	for _, d := range digests {
		calls += d.Calls
	}
	wantCalls := sent.Load() - clients // prepares don't evaluate
	if calls != wantCalls {
		t.Errorf("digest calls = %d, want %d", calls, wantCalls)
	}
}
