package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"idl"
	"idl/internal/server"
)

// TestServedStatementsTimedOnce: the server times no statement of its
// own; the facade's op times each one once. N ad hoc and P prepared
// queries, M update requests and K program calls (which the wire sends
// as update requests, so they are exec statements) each count once in
// every engine.* instrument of their kind, the registry holds no other
// window or SLO, and the health report, read over the wire, lists only
// those ops.
func TestServedStatementsTimedOnce(t *testing.T) {
	db := demoDB(t)
	_, ts := newServer(t, db, server.Config{})
	c := server.NewClient(ts.URL)
	ctx := context.Background()
	if err := c.Clause(ctx, ".dbU.insZz(.price=P) -> .euter.r+(.stkCode=zz, .date=1/1/85, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	const n, p, m, k = 4, 3, 2, 2
	for i := 0; i < n; i++ {
		if _, err := c.Query(ctx, "?.euter.r(.stkCode=stk001, .clsPrice=P)"); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := c.Prepare(ctx, "?.euter.r(.stkCode=S, .clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		if _, err := c.ExecPrepared(ctx, prep.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		if _, err := c.Exec(ctx, "?.euter.r+(.date=3/9/85, .stkCode=zz, .clsPrice=77)"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if _, err := c.Exec(ctx, fmt.Sprintf("?.dbU.insZz(.price=%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	reg := db.Metrics()
	slos := map[string]uint64{}
	for _, s := range reg.SLOStatuses() {
		slos[s.Name] = s.Total
	}
	for kind, want := range map[string]uint64{"query": n + p, "exec": m + k, "call": 0} {
		name := "engine." + kind
		ws, _ := reg.WindowValue(name + ".latency")
		got := []uint64{reg.CounterValue(name + ".count"), reg.Histogram(name + ".latency").Count(), ws.Count, slos[name]}
		for _, g := range got {
			if g != want {
				t.Errorf("%s: count/histogram/window/SLO = %v, want %d each", name, got, want)
				break
			}
		}
	}
	if len(slos) != 3 {
		t.Errorf("SLO trackers = %v, want the three statement kinds", slos)
	}
	for _, w := range reg.Snapshot().Windows {
		if !strings.HasPrefix(w.Name, "engine.") {
			t.Errorf("window %q: the server times no statement", w.Name)
		}
	}

	raw, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var h idl.HealthReport
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Ops) != 3 {
		t.Errorf("health ops = %+v, want the three statement kinds", h.Ops)
	}
	for _, op := range h.Ops {
		if !strings.HasPrefix(op.Name, "engine.") {
			t.Errorf("health op %q: the server times no statement", op.Name)
		}
	}
}
