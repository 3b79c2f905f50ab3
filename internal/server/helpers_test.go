package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idl"
	"idl/internal/object"
	"idl/internal/server"
	"idl/internal/workload"
)

// demoDB builds the paper's three stock databases — the same universe
// cmd/idl -demo serves, so transcript answers match the shell's.
func demoDB(t *testing.T) *idl.DB {
	t.Helper()
	cfg := workload.Default()
	cfg.Demo = true
	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatalf("demo universe: %v", err)
	}
	return db
}

// newServer wires a Server over db into an httptest listener.
func newServer(t *testing.T, db *idl.DB, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// gateSource is a federated member whose sync blocks until the gate
// channel closes — the deterministic way to hold admitted requests
// inflight while the tests probe shedding and drain. Relations honors
// the context so deadline tests still complete.
type gateSource struct {
	gate chan struct{}
	once sync.Once
}

func newGate() *gateSource { return &gateSource{gate: make(chan struct{})} }

// open releases every blocked sync; idempotent so tests can defer it
// (a test failing before open must not hang the listener's Close).
func (g *gateSource) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gateSource) Name() string { return "gate" }

func (g *gateSource) Relations(ctx context.Context) ([]string, error) {
	select {
	case <-g.gate:
		return []string{"r"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gateSource) Scan(ctx context.Context, rel string, yield func(object.Object) bool) error {
	return nil
}

func (g *gateSource) Attributes(ctx context.Context, rel string) ([]string, error) {
	return nil, nil
}

// staticSource is an always-available empty member, for Sync churn.
type staticSource struct{ name string }

func (s *staticSource) Name() string                                         { return s.name }
func (s *staticSource) Relations(context.Context) ([]string, error)          { return []string{"r"}, nil }
func (s *staticSource) Attributes(context.Context, string) ([]string, error) { return nil, nil }
func (s *staticSource) Scan(ctx context.Context, rel string, yield func(object.Object) bool) error {
	return nil
}

// wireCall is one raw request; it returns status, trimmed body, and
// response headers without the Client's conveniences, so tests see the
// wire exactly.
func wireCall(t *testing.T, base, method, path string, headers map[string]string, body string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.Close {
		// The transport consumes the hop-by-hop Connection header into
		// resp.Close; reify it so tests can assert the drain signal.
		resp.Header.Set("Connection", "close")
	}
	return resp.StatusCode, strings.TrimRight(string(b), "\n"), resp.Header
}

// stmtBody renders a StatementRequest body.
func stmtBody(t testing.TB, stmt string) string {
	t.Helper()
	b, err := json.Marshal(server.StatementRequest{Stmt: stmt})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// waitInflight polls until the server reports n admitted requests.
func waitInflight(t *testing.T, srv *server.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Inflight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d (now %d)", n, srv.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}
