package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idl"
	"idl/internal/server"
	"idl/internal/workload"
)

// captureJournal records a workload journal against an embedded demo
// DB — the ground truth the server round-trip is compared against.
func captureJournal(t *testing.T, cfg workload.Config, stmts []string) string {
	t.Helper()
	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.idlog")
	if err := db.StartJournal(path, cfg.Meta()); err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		if _, err := db.Load(s); err != nil {
			t.Fatalf("capture %q: %v", s, err)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveDemo starts an in-process idld-equivalent server over a fresh
// demo universe built from the same workload config.
func serveDemo(t *testing.T, cfg workload.Config) *httptest.Server {
	t.Helper()
	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

var demoStatements = []string{
	".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	"?.euter.r(.stkCode=S, .clsPrice>100)",
	"?.euter.r+(.date=6/6/85, .stkCode=newco, .clsPrice=321)",
	"?.dbI.p(.stk=newco, .price=P)",
	"?.chwab.r(.S>100)",
}

// TestCheckRoundTrip: a journal captured against the embedded engine
// replays byte-identically through the wire protocol — rules register,
// updates apply, and every answer matches the recorded canonical form.
func TestCheckRoundTrip(t *testing.T) {
	cfg := workload.Default()
	path := captureJournal(t, cfg, demoStatements)
	ts := serveDemo(t, cfg)

	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-check", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "replayed 5 records") || !strings.Contains(out.String(), "OK") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestCheckDetectsDivergence: replaying against a server whose universe
// was perturbed first exits 1 and names the mismatching field.
func TestCheckDetectsDivergence(t *testing.T) {
	cfg := workload.Default()
	path := captureJournal(t, cfg, demoStatements)

	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the served universe: one extra high-priced stock changes
	// the recorded answers.
	if _, err := db.Exec("?.euter.r+(.date=1/1/85, .stkCode=rogue, .clsPrice=999)"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-check", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "mismatch") || !strings.Contains(out.String(), "answer") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestLoadGates: an open-loop run against a healthy server passes
// generous SLO gates and reports the latency distribution; impossible
// gates fail with exit 1.
func TestLoadGates(t *testing.T) {
	cfg := workload.Default()
	path := captureJournal(t, cfg, demoStatements)
	ts := serveDemo(t, cfg)

	var out, errOut bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-qps", "100", "-duration", "300ms",
		"-min-qps", "10", "-max-p99", "5s", "-max-error-rate", "0", path,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"sent=30", "latency p50=", "GATES PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	// An impossible p99 gate fails the run.
	out.Reset()
	code = run([]string{
		"-addr", ts.URL, "-qps", "50", "-duration", "200ms", "-max-p99", "1ns", path,
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("impossible gate exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "GATE FAIL") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestLoadTenants cycles tenants and checks the per-tenant counters
// moved on the server.
func TestLoadTenants(t *testing.T) {
	cfg := workload.Default()
	path := captureJournal(t, cfg, demoStatements)

	db, _, err := workload.Open(cfg, workload.Store{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-qps", "100", "-duration", "200ms", "-tenants", "alpha,beta", path,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	a := db.Metrics().Counter("server.tenant.alpha.requests").Value()
	b := db.Metrics().Counter("server.tenant.beta.requests").Value()
	if a == 0 || b == 0 {
		t.Errorf("tenant cycling: alpha=%d beta=%d requests, want both > 0", a, b)
	}
}

// replayStatements is the in-process check workload: a view, a
// negation query, an update, and a read of the view it changed.
var replayStatements = []string{
	".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	"?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)",
	"?.euter.r+(.date=6/6/85, .stkCode=newco, .clsPrice=321)",
	"?.dbI.p(.stk=newco, .price=P)",
}

func TestReplayCleanJournal(t *testing.T) {
	path := captureJournal(t, workload.Default(), replayStatements)
	var out, errOut bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "replayed 4 records") || !strings.Contains(out.String(), "OK") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestReplayPerfOutput(t *testing.T) {
	path := captureJournal(t, workload.Default(), replayStatements)
	var out, errOut bytes.Buffer
	if code := run([]string{"-check", "-perf", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"latency (recorded vs replayed):", "query", "recorded n=", "replayed n=", "p50=", "all"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("perf output missing %q:\n%s", want, out.String())
		}
	}
}

// TestReplayDetectsTampering rewrites one journaled answer and expects
// exit status 1 with the mismatch named.
func TestReplayDetectsTampering(t *testing.T) {
	path := captureJournal(t, workload.Default(), replayStatements)
	tamperJournal(t, path)
	var out, errOut bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "mismatch") || !strings.Contains(out.String(), "answer") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestReplayChaosJournal(t *testing.T) {
	cfg := workload.Default()
	cfg.BestEffort = true
	cfg.ChaosSeed = 13
	cfg.Retries = 0
	cfg.BreakerThreshold = 1000
	stmts := []string{
		"?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.date=D, .clsPrice>P)",
		"?.chwab.r(.date=D, .S>150)",
		"?.ource.S(.clsPrice>150)",
		"?.euter.r(.stkCode=S, .clsPrice>150)",
	}
	path := captureJournal(t, cfg, stmts)
	var out, errOut bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errOut); code != 0 {
		t.Fatalf("chaos replay diverged (exit %d)\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestReplayParallelJournal captures a journal with parallel evaluation
// on (workers=4). The journal must carry the worker count, replay
// byte-for-byte through the metadata round trip, and — because parallel
// answers are byte-identical to sequential ones — still replay cleanly
// when the workers key is stripped and the replay runs sequentially.
func TestReplayParallelJournal(t *testing.T) {
	cfg := workload.Default()
	cfg.Workers = 4
	cfg.Stocks = 12
	cfg.Days = 10
	path := captureJournal(t, cfg, replayStatements)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var hdr idl.JournalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Meta["workers"] != "4" {
		t.Fatalf("journal meta workers = %q, want 4", hdr.Meta["workers"])
	}
	tagged := false
	for _, line := range lines[1:] {
		var rec idl.JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == idl.EventQuery && rec.Workers == 4 {
			tagged = true
		}
	}
	if !tagged {
		t.Fatal("no query record tagged with workers=4")
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errOut); code != 0 {
		t.Fatalf("parallel replay diverged (exit %d)\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("output = %q", out.String())
	}

	// Strip the workers key: the replay environment is now sequential,
	// and the recorded parallel answers must still match byte-for-byte.
	delete(hdr.Meta, "workers")
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	lines[0] = string(hdrLine)
	seqPath := filepath.Join(t.TempDir(), "sequential.idlog")
	if err := os.WriteFile(seqPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-check", seqPath}, &out, &errOut); code != 0 {
		t.Fatalf("sequential replay of parallel journal diverged (exit %d)\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

func TestReplaySnapshotEnvironment(t *testing.T) {
	// A journal captured against a hand-built universe carries no
	// workload metadata; -snapshot supplies the environment instead.
	db := idl.Open()
	if _, err := db.Exec("+.lab.r(.n=1)"); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "lab.snap")
	if err := db.Save(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lab.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.lab.r(.n=N)"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-check", "-snapshot", snap, path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	// Without the snapshot the environment is empty and the answer
	// diverges.
	out.Reset()
	if code := run([]string{"-check", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s", code, out.String())
	}
}

// tamperJournal appends a bogus row to the first journaled query answer
// with rows in it.
func tamperJournal(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	tampered := false
	for i, line := range lines[1:] {
		var rec idl.JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == idl.EventQuery && rec.Answer != "" {
			rec.Answer += "\nbogus\t999"
			out, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines[i+1] = string(out)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no query record to tamper with")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckTargetsAgree replays one clean and one tampered journal in
// process and over the wire: both targets must print the same report
// line and the same mismatch list.
func TestCheckTargetsAgree(t *testing.T) {
	cfg := workload.Default()
	clean := captureJournal(t, cfg, demoStatements)
	tampered := captureJournal(t, cfg, demoStatements)
	tamperJournal(t, tampered)
	for _, tc := range []struct {
		path string
		code int
	}{{clean, 0}, {tampered, 1}} {
		var local, wire, errOut bytes.Buffer
		if code := run([]string{"-check", tc.path}, &local, &errOut); code != tc.code {
			t.Fatalf("in-process exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, local.String(), errOut.String())
		}
		ts := serveDemo(t, cfg)
		if code := run([]string{"-check", "-addr", ts.URL, tc.path}, &wire, &errOut); code != tc.code {
			t.Fatalf("wire exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, wire.String(), errOut.String())
		}
		if local.String() != wire.String() {
			t.Errorf("targets disagree\nin-process:\n%s\nwire:\n%s", local.String(), wire.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"-addr", "http://127.0.0.1:1", filepath.Join(t.TempDir(), "missing.idlog")}, &out, &errOut); code != 2 {
		t.Fatalf("missing journal exit %d, want 2", code)
	}
	// Load mode needs a server; check mode replays in process without one.
	if code := run([]string{filepath.Join(t.TempDir(), "j.idlog")}, &out, &errOut); code != 2 {
		t.Fatalf("load without -addr exit %d, want 2", code)
	}
}

func TestCheckUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-check"}, &out, &errOut); code != 2 {
		t.Fatalf("-check without a journal exit %d, want 2", code)
	}
	if code := run([]string{"-check", filepath.Join(t.TempDir(), "missing.idlog")}, &out, &errOut); code != 2 {
		t.Fatalf("in-process check of a missing journal exit %d, want 2", code)
	}
	// A snapshot environment is in-process only.
	if code := run([]string{"-check", "-addr", "http://127.0.0.1:1", "-snapshot", "s", "j.idlog"}, &out, &errOut); code != 2 {
		t.Fatalf("-snapshot with -addr exit %d, want 2", code)
	}
}
