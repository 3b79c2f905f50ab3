package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idl"
	"idl/internal/server"
)

// TestDebugOffStates: the shared debug handler reports disabled
// subsystems as clean 503s (JSON error bodies), and distinguishes an
// unknown fingerprint on a live insights store (404) from the
// subsystem being off (503).
func TestDebugOffStates(t *testing.T) {
	db := idl.Open()
	ts := httptest.NewServer(server.DebugHandler(db))
	defer ts.Close()

	for _, path := range []string{"/debug/health", "/debug/slo", "/debug/traces", "/debug/statements", "/debug/statements/feedbeef"} {
		status, body, hdr := wireCall(t, ts.URL, "GET", path, nil, "")
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s with subsystem off: %d (%s), want 503", path, status, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s off-state content type: %q, want JSON", path, ct)
		}
		if !strings.Contains(body, "error") {
			t.Errorf("%s off-state body: %q, want an error field", path, body)
		}
	}

	// With insights live, an unknown fingerprint is the caller's fault.
	db.EnableInsights(idl.InsightsConfig{})
	status, _, _ := wireCall(t, ts.URL, "GET", "/debug/statements/feedbeef", nil, "")
	if status != http.StatusNotFound {
		t.Errorf("unknown fingerprint on live store: %d, want 404", status)
	}
	if status, _, _ := wireCall(t, ts.URL, "GET", "/debug/statements", nil, ""); status != http.StatusOK {
		t.Errorf("statements with insights on: %d, want 200", status)
	}
	// Metrics is self-enabling (scraping turns the registry on).
	if status, _, _ := wireCall(t, ts.URL, "GET", "/debug/metrics", nil, ""); status != http.StatusOK {
		t.Errorf("metrics: %d, want 200", status)
	}
	if status, _, _ := wireCall(t, ts.URL, "GET", "/debug/vars", nil, ""); status != http.StatusOK {
		t.Errorf("expvar: %d, want 200", status)
	}
}

// TestServerDebugMount: idld's serving mux carries the same /debug/
// endpoints behind Config.Debug — on when asked, absent when not.
func TestServerDebugMount(t *testing.T) {
	_, ts := newServer(t, demoDB(t), server.Config{Debug: true})
	if status, _, _ := wireCall(t, ts.URL, "GET", "/debug/metrics", nil, ""); status != http.StatusOK {
		t.Errorf("debug-enabled server: /debug/metrics %d, want 200", status)
	}
	if status, _, _ := wireCall(t, ts.URL, "GET", "/debug/statements", nil, ""); status == http.StatusNotFound {
		t.Error("debug-enabled server: /debug/statements not mounted")
	}

	_, plain := newServer(t, demoDB(t), server.Config{})
	if status, _, _ := wireCall(t, plain.URL, "GET", "/debug/metrics", nil, ""); status != http.StatusNotFound {
		t.Errorf("debug-disabled server: /debug/metrics %d, want 404", status)
	}
}

// TestDebugMVCCMatchesHealth: /debug/mvcc and the health report's mvcc
// entry are one projection of the engine's version chain, so for one DB
// state they encode to the same JSON.
func TestDebugMVCCMatchesHealth(t *testing.T) {
	db := demoDB(t)
	db.Metrics()
	// A read publishes a head, a write clones under it, the next read
	// freezes a second version.
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("?.euter.r+(.date=1/1/85, .stkCode=mvcc, .clsPrice=1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.euter.r(.stkCode=mvcc)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.DebugHandler(db))
	defer ts.Close()
	status, body, _ := wireCall(t, ts.URL, "GET", "/debug/mvcc", nil, "")
	if status != http.StatusOK {
		t.Fatalf("/debug/mvcc: %d (%s)", status, body)
	}
	h, err := db.Health()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(h.MVCC, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Errorf("/debug/mvcc body:\n%s\nhealth mvcc JSON:\n%s", body, want)
	}
	if h.MVCC.Freezes == 0 || h.MVCC.COWClones == 0 {
		t.Errorf("state under test is trivial: %+v", *h.MVCC)
	}
}
