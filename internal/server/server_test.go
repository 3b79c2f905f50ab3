package server_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"idl"
	"idl/internal/qlog"
	"idl/internal/server"
	"idl/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestTranscriptGolden drives a scripted request sequence — the paper's
// running example over the wire, covering every endpoint plus the error
// paths — and compares the full request/response transcript with a
// golden file. Deterministic session IDs and canonical sorted answers
// make the transcript byte-stable.
func TestTranscriptGolden(t *testing.T) {
	_, ts := newServer(t, demoDB(t), server.Config{})

	type step struct {
		name    string
		method  string
		path    string
		headers map[string]string
		body    string
	}
	acme := map[string]string{server.HeaderTenant: "acme"}
	acmeS1 := map[string]string{server.HeaderTenant: "acme", server.HeaderSession: "s1"}
	steps := []step{
		{"healthz", "GET", "/healthz", nil, ""},
		{"query stocks over 100", "POST", "/v1/query", acme, stmtBody(t, "?.euter.r(.stkCode=S, .clsPrice>100)")},
		{"register unified view", "POST", "/v1/rule", acme, stmtBody(t, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")},
		{"query the view", "POST", "/v1/query", acme, stmtBody(t, "?.dbI.p(.stk=S, .price>100)")},
		{"register update program", "POST", "/v1/clause", acme, stmtBody(t, ".dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P)")},
		{"call the program", "POST", "/v1/exec", acme, stmtBody(t, "?.dbU.ins(.stk=newco, .date=1/2/85, .price=42)")},
		{"see the inserted stock", "POST", "/v1/query", acme, stmtBody(t, "?.euter.r(.stkCode=newco, .clsPrice=P)")},
		{"prepare mints a session", "POST", "/v1/prepare", acme, stmtBody(t, "?.dbI.p(.stk=S, .price>100)")},
		{"exec prepared", "POST", "/v1/exec-prepared", acmeS1, `{"id":"p1"}`},
		{"session info", "GET", "/v1/session", acmeS1, ""},
		{"close prepared", "POST", "/v1/close-prepared", acmeS1, `{"id":"p1"}`},
		{"exec closed prepared is 404", "POST", "/v1/exec-prepared", acmeS1, `{"id":"p1"}`},
		{"parse error is 400", "POST", "/v1/query", acme, stmtBody(t, "?.euter.r(.stkCode=")},
		{"other tenant cannot see the session", "GET", "/v1/session", map[string]string{server.HeaderTenant: "rival", server.HeaderSession: "s1"}, ""},
		{"invalid tenant is 400", "POST", "/v1/query", map[string]string{server.HeaderTenant: "bad tenant!"}, stmtBody(t, "?.euter.r(.stkCode=S)")},
		{"prepared without session is 400", "POST", "/v1/exec-prepared", acme, `{"id":"p1"}`},
		{"bad body is 400", "POST", "/v1/query", acme, `{"stmt":`},
	}

	var b strings.Builder
	for i, st := range steps {
		status, body, hdr := wireCall(t, ts.URL, st.method, st.path, st.headers, st.body)
		fmt.Fprintf(&b, "### %02d %s — %s %s", i+1, st.name, st.method, st.path)
		if tnt := st.headers[server.HeaderTenant]; tnt != "" {
			fmt.Fprintf(&b, " tenant=%s", tnt)
		}
		if sid := st.headers[server.HeaderSession]; sid != "" {
			fmt.Fprintf(&b, " session=%s", sid)
		}
		b.WriteString("\n")
		if st.body != "" {
			fmt.Fprintf(&b, "> %s\n", st.body)
		}
		fmt.Fprintf(&b, "< %d", status)
		if sid := hdr.Get(server.HeaderSession); sid != "" {
			fmt.Fprintf(&b, " session=%s", sid)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%s\n\n", body)
	}

	const goldenPath = "testdata/transcript.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("transcript diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSessionLifecycle walks one session through prepare → execute →
// re-prepare → close via the Client, checking the statement registry
// along the way.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newServer(t, demoDB(t), server.Config{})
	c := server.NewClient(ts.URL)
	ctx := context.Background()

	p1, err := c.Prepare(ctx, "?.euter.r(.stkCode=S, .clsPrice>100)")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p1.ID != "p1" || p1.Session != "s1" || c.Session != "s1" {
		t.Fatalf("first prepare: got id=%s session=%s (client %s)", p1.ID, p1.Session, c.Session)
	}
	ans, err := c.ExecPrepared(ctx, "p1")
	if err != nil {
		t.Fatalf("exec prepared: %v", err)
	}
	want, err := c.Query(ctx, "?.euter.r(.stkCode=S, .clsPrice>100)")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if ans.Answer != want.Answer || ans.Rows != want.Rows {
		t.Errorf("prepared answer diverged from ad hoc: %q vs %q", ans.Answer, want.Answer)
	}

	p2, err := c.Prepare(ctx, "?.chwab.r(.S>100)")
	if err != nil {
		t.Fatalf("second prepare: %v", err)
	}
	if p2.ID != "p2" || p2.Session != "s1" {
		t.Fatalf("second prepare: got id=%s session=%s, want p2 in s1", p2.ID, p2.Session)
	}
	info, err := c.SessionInfo(ctx)
	if err != nil {
		t.Fatalf("session info: %v", err)
	}
	if len(info.Prepared) != 2 || info.Prepared[0] != "p1" || info.Prepared[1] != "p2" {
		t.Fatalf("session registry: %v", info.Prepared)
	}

	if err := c.ClosePrepared(ctx, "p1"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.ExecPrepared(ctx, "p1"); err == nil {
		t.Fatal("executing a closed statement should fail")
	} else if se, ok := err.(*server.StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("want 404 for closed statement, got %v", err)
	}
}

// TestSessionExpiry verifies the idle sweep drops sessions and their
// prepared statements.
func TestSessionExpiry(t *testing.T) {
	srv, ts := newServer(t, demoDB(t), server.Config{SessionIdle: 10 * time.Millisecond})
	c := server.NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Prepare(ctx, "?.euter.r(.stkCode=S)"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions: %d, want 1", srv.Sessions())
	}
	if n := srv.SweepSessions(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions after sweep: %d, want 0", srv.Sessions())
	}
	if _, err := c.ExecPrepared(ctx, "p1"); err == nil {
		t.Fatal("expired session should not serve prepared statements")
	} else if se, ok := err.(*server.StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("want 404 for expired session, got %v", err)
	}
}

// TestTenantIsolation: a session belongs to the tenant that minted it;
// other tenants cannot address it even knowing its ID, and sessions of
// different tenants do not collide.
func TestTenantIsolation(t *testing.T) {
	_, ts := newServer(t, demoDB(t), server.Config{})
	ctx := context.Background()

	a := server.NewClient(ts.URL)
	a.Tenant = "acme"
	if _, err := a.Prepare(ctx, "?.euter.r(.stkCode=S)"); err != nil {
		t.Fatalf("prepare: %v", err)
	}

	// The rival presents acme's session ID.
	b := server.NewClient(ts.URL)
	b.Tenant = "rival"
	b.Session = a.Session
	if _, err := b.SessionInfo(ctx); err == nil {
		t.Fatal("rival tenant resolved acme's session")
	} else if se, ok := err.(*server.StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("want 404 across tenants, got %v", err)
	}
	if _, err := b.ExecPrepared(ctx, "p1"); err == nil {
		t.Fatal("rival tenant executed acme's prepared statement")
	}

	// The rival's own sessions work normally.
	b.Session = ""
	if _, err := b.Prepare(ctx, "?.chwab.r(.S>100)"); err != nil {
		t.Fatalf("rival prepare: %v", err)
	}
	if b.Session == a.Session {
		t.Fatalf("tenants share a session ID: %s", b.Session)
	}
}

// TestSaturationShed saturates admission with gate-blocked requests and
// checks excess load sheds with 429 + Retry-After instead of queueing,
// and that the blocked requests complete once the gate opens.
func TestSaturationShed(t *testing.T) {
	db := demoDB(t)
	gate := newGate()
	defer gate.open()
	if err := db.Mount("gate", gate); err != nil {
		t.Fatalf("mount: %v", err)
	}
	srv, ts := newServer(t, db, server.Config{MaxInflight: 3, TenantInflight: 3, RequestTimeout: 30 * time.Second})

	var wg sync.WaitGroup
	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _ := wireCall(t, ts.URL, "POST", "/v1/query", nil, stmtBody(t, "?.euter.r(.stkCode=S)"))
			results <- status
		}()
	}
	waitInflight(t, srv, 3)

	// Saturated: a burst of further requests all sheds, deterministically.
	for i := 0; i < 5; i++ {
		status, body, hdr := wireCall(t, ts.URL, "POST", "/v1/query", nil, stmtBody(t, "?.euter.r(.stkCode=S)"))
		if status != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d (%s), want 429", i, status, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	// Probes bypass admission so a saturated server stays observable.
	status, body, _ := wireCall(t, ts.URL, "GET", "/healthz", nil, "")
	if status != http.StatusOK || !strings.Contains(body, `"inflight":3`) {
		t.Fatalf("healthz under saturation: %d %s", status, body)
	}

	gate.open()
	wg.Wait()
	close(results)
	for status := range results {
		if status != http.StatusOK {
			t.Errorf("blocked request finished with %d, want 200", status)
		}
	}
	if got := srv.DB().Metrics().Counter("server.shed").Value(); got != 5 {
		t.Errorf("server.shed = %d, want 5", got)
	}
}

// TestTenantFairness: one tenant at its per-tenant bound sheds while
// the server still has capacity for other tenants.
func TestTenantFairness(t *testing.T) {
	db := demoDB(t)
	gate := newGate()
	defer gate.open()
	if err := db.Mount("gate", gate); err != nil {
		t.Fatalf("mount: %v", err)
	}
	srv, ts := newServer(t, db, server.Config{MaxInflight: 8, TenantInflight: 1, RequestTimeout: 30 * time.Second})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wireCall(t, ts.URL, "POST", "/v1/query", map[string]string{server.HeaderTenant: "greedy"}, stmtBody(t, "?.euter.r(.stkCode=S)"))
	}()
	waitInflight(t, srv, 1)

	// greedy is at its bound: its next request sheds...
	status, body, _ := wireCall(t, ts.URL, "POST", "/v1/query", map[string]string{server.HeaderTenant: "greedy"}, stmtBody(t, "?.euter.r(.stkCode=S)"))
	if status != http.StatusTooManyRequests || !strings.Contains(body, "greedy") {
		t.Fatalf("greedy overload: %d %s, want tenant-shed 429", status, body)
	}
	// ...while another tenant is still admitted (it blocks on the gate,
	// proving it got past admission, then completes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, _ := wireCall(t, ts.URL, "POST", "/v1/query", map[string]string{server.HeaderTenant: "modest"}, stmtBody(t, "?.euter.r(.stkCode=S)"))
		if status != http.StatusOK {
			t.Errorf("modest tenant: status %d, want 200", status)
		}
	}()
	waitInflight(t, srv, 2)

	gate.open()
	wg.Wait()
	if got := srv.DB().Metrics().Counter("server.tenant.greedy.shed").Value(); got != 1 {
		t.Errorf("greedy shed counter = %d, want 1", got)
	}
}

// TestGracefulDrain: with requests blocked inflight, drain closes the
// gate (new requests 503 + Connection: close), lets the inflight ones
// finish with 200, and checkpoints the WAL.
func TestGracefulDrain(t *testing.T) {
	wcfg := workload.Default()
	wcfg.Demo = true
	dir := t.TempDir()
	db, _, err := idl.OpenWAL(dir, idl.WALOptions{
		Bootstrap: func(db *idl.DB) error { return workload.Apply(db, wcfg) },
	})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	defer db.Close()
	// A mutation before the gate mounts gives the checkpoint something to
	// capture (exec syncs fail-fast, so it must precede the blocked gate).
	if _, err := db.Exec("?.euter.r+(.date=3/9/85, .stkCode=drainco, .clsPrice=7)"); err != nil {
		t.Fatalf("exec: %v", err)
	}
	gate := newGate()
	defer gate.open()
	if err := db.Mount("gate", gate); err != nil {
		t.Fatalf("mount: %v", err)
	}
	srv, ts := newServer(t, db, server.Config{MaxInflight: 4, TenantInflight: 4, RequestTimeout: 30 * time.Second})

	var wg sync.WaitGroup
	statuses := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _ := wireCall(t, ts.URL, "POST", "/v1/query", nil, stmtBody(t, "?.euter.r(.stkCode=S)"))
			statuses <- status
		}()
	}
	waitInflight(t, srv, 2)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// The admission gate closes before inflight work finishes.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	status, _, hdr := wireCall(t, ts.URL, "POST", "/v1/query", nil, stmtBody(t, "?.euter.r(.stkCode=S)"))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503", status)
	}
	if hdr.Get("Connection") != "close" {
		t.Error("drain refusal without Connection: close")
	}
	if status, _, _ := wireCall(t, ts.URL, "GET", "/healthz", nil, ""); status != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", status)
	}

	gate.open()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("inflight request finished with %d during drain, want 200", status)
		}
	}
	st, ok := db.WALStatus()
	if !ok {
		t.Fatal("wal status unavailable")
	}
	if st.Checkpoints < 1 {
		t.Errorf("drain did not checkpoint: %+v", st)
	}
}

// TestDeadline504: a request whose deadline expires mid-evaluation maps
// to 504, and X-Timeout-Ms lowers the deadline per request.
func TestDeadline504(t *testing.T) {
	db := demoDB(t)
	gate := newGate() // never opened: evaluation blocks until the deadline
	if err := db.Mount("gate", gate); err != nil {
		t.Fatalf("mount: %v", err)
	}
	_, ts := newServer(t, db, server.Config{RequestTimeout: 30 * time.Second})

	start := time.Now()
	status, body, _ := wireCall(t, ts.URL, "POST", "/v1/query",
		map[string]string{server.HeaderTimeout: "50"}, stmtBody(t, "?.euter.r(.stkCode=S)"))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline expiry: %d (%s), want 504", status, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("50ms deadline took %s: X-Timeout-Ms not honored", d)
	}
}

// TestTraceAdoption: a caller-supplied X-Trace-Id is echoed in the
// response and adopted by the engine's flight recorder instead of a
// facade-minted ID.
func TestTraceAdoption(t *testing.T) {
	db := demoDB(t)
	db.SetFlightRecorderSize(qlog.DefaultRingSize)
	_, ts := newServer(t, db, server.Config{})

	const tid = "trace-e2e-42"
	status, _, hdr := wireCall(t, ts.URL, "POST", "/v1/query",
		map[string]string{server.HeaderTrace: tid}, stmtBody(t, "?.euter.r(.stkCode=S)"))
	if status != http.StatusOK {
		t.Fatalf("query: %d", status)
	}
	if got := hdr.Get(server.HeaderTrace); got != tid {
		t.Errorf("trace header echo: %q, want %q", got, tid)
	}
	found := false
	for _, ev := range db.Events() {
		if ev.TraceID == tid {
			found = true
		}
	}
	if !found {
		t.Error("engine events never carried the adopted trace ID")
	}
}

// scanDB builds served.scan's universe: 30 stocks × 60 days, so
// scanQuery answers 1 800 rows.
func scanDB(t testing.TB) *idl.DB {
	t.Helper()
	cfg := workload.Default()
	cfg.Demo = true
	cfg.Stocks, cfg.Days = 30, 60
	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatalf("universe: %v", err)
	}
	return db
}

const scanQuery = "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)"

// TestClientReusesConnection issues scan-sized queries through one
// Client and counts the connections the server accepts: the client must
// read each body to its end so the keep-alive connection goes back to
// the pool, not dial per reply.
func TestClientReusesConnection(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	ts := httptest.NewUnstartedServer(server.New(scanDB(t), server.Config{}).Handler())
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	ts.Start()
	defer ts.Close()

	c := server.NewClient(ts.URL)
	c.HTTP = ts.Client() // a transport of its own: nothing pooled by earlier tests
	for i := 0; i < 100; i++ {
		ans, err := c.Query(context.Background(), scanQuery)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ans.Rows != 1800 {
			t.Fatalf("query %d: %d rows, want 1800", i, ans.Rows)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("100 sequential queries used %d connections, want 1", conns)
	}
}

// TestWireFraming checks that every endpoint, error and refusal
// included, answers with an exact Content-Length and is never chunked,
// and that a 1 800-row answer arrives whole and equal to the embedded
// rendering.
func TestWireFraming(t *testing.T) {
	db := scanDB(t)
	srv, ts := newServer(t, db, server.Config{})
	acme := map[string]string{server.HeaderTenant: "acme"}
	acmeS1 := map[string]string{server.HeaderTenant: "acme", server.HeaderSession: "s1"}
	steps := []struct {
		method, path string
		headers      map[string]string
		body         string
		status       int
	}{
		{"GET", "/healthz", nil, "", 200},
		{"POST", "/v1/query", acme, stmtBody(t, scanQuery), 200},
		{"POST", "/v1/query", acme, stmtBody(t, "?.euter.r(.stkCode=stk001, .clsPrice>100)"), 200},
		{"POST", "/v1/rule", acme, stmtBody(t, ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)"), 200},
		{"POST", "/v1/clause", acme, stmtBody(t, ".dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P)"), 200},
		{"POST", "/v1/exec", acme, stmtBody(t, "?.dbU.ins(.stk=newco, .date=1/2/85, .price=42)"), 200},
		{"POST", "/v1/prepare", acme, stmtBody(t, scanQuery), 200},
		{"POST", "/v1/exec-prepared", acmeS1, `{"id":"p1"}`, 200},
		{"GET", "/v1/session", acmeS1, "", 200},
		{"POST", "/v1/close-prepared", acmeS1, `{"id":"p1"}`, 200},
		{"GET", "/v1/health", nil, "", 200},
		{"POST", "/v1/exec-prepared", acmeS1, `{"id":"p1"}`, 404},
		{"POST", "/v1/query", acme, `{"stmt":`, 400},
		{"POST", "/v1/query", acme, stmtBody(t, "?.euter.r(.stkCode="), 400},
		{"POST", "/v1/query", map[string]string{server.HeaderTenant: "bad tenant!"}, stmtBody(t, scanQuery), 400},
	}
	check := func(method, path string, headers map[string]string, body string, status int) string {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status {
			t.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, status, b)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(b)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(b)) {
			t.Errorf("%s %s: Transfer-Encoding %v, Content-Length %q (%d), body %d bytes", method, path, resp.TransferEncoding, resp.Header.Get("Content-Length"), resp.ContentLength, len(b))
		}
		return string(b)
	}
	for _, st := range steps {
		check(st.method, st.path, st.headers, st.body, st.status)
	}
	ans, err := db.Query(scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	var got server.QueryResponse
	if err := json.Unmarshal([]byte(check("POST", "/v1/query", nil, stmtBody(t, scanQuery), 200)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Rows != ans.Len() || got.Answer != ans.String() {
		t.Errorf("scan answer over the wire: %d rows, equal to embedded %v", got.Rows, got.Answer == ans.String())
	}
	srv.BeginDrain()
	check("POST", "/v1/query", nil, stmtBody(t, scanQuery), http.StatusServiceUnavailable)
}
