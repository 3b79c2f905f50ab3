package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"idl"
	"idl/internal/server"
	"idl/internal/workload"
)

// syncBuffer guards concurrent writes from the serving goroutine while
// the test reads after exit.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startIdld runs the daemon in-process and returns its bound address
// and exit-code channel.
func startIdld(t *testing.T, args []string) (string, *syncBuffer, chan int) {
	t.Helper()
	var out, errOut syncBuffer
	ready := make(chan string, 1)
	code := make(chan int, 1)
	go func() { code <- run(args, &out, &errOut, ready) }()
	select {
	case addr := <-ready:
		return addr, &out, code
	case c := <-code:
		t.Fatalf("idld exited %d before listening\nstdout: %s\nstderr: %s", c, out.String(), errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("idld never reported ready")
	}
	return "", nil, nil
}

// TestServeQueryAndGracefulDrain is the daemon's end-to-end path: serve
// the demo universe durably, answer wire requests, apply -slo-target to
// the statement SLOs, then exit 0 on SIGTERM with a drained,
// checkpointed WAL that a fresh open recovers.
func TestServeQueryAndGracefulDrain(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	addrFile := filepath.Join(t.TempDir(), "addr")
	addr, out, code := startIdld(t, []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-demo", "-wal", walDir,
		"-debug", "-slo-target", "5ms",
	})

	// The addr file is how shell scripts find an ephemeral port.
	fileAddr, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatalf("addr file: %v", err)
	}
	if got := strings.TrimSpace(string(fileAddr)); got != addr {
		t.Errorf("addr file %q != bound address %q", got, addr)
	}

	ctx := context.Background()
	c := server.NewClient("http://" + addr)
	ans, err := c.Query(ctx, "?.euter.r(.stkCode=S, .clsPrice>100)")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if ans.Rows == 0 {
		t.Fatal("demo universe served an empty answer")
	}
	if _, err := c.Exec(ctx, "?.euter.r+(.date=7/7/85, .stkCode=walco, .clsPrice=12)"); err != nil {
		t.Fatalf("exec: %v", err)
	}
	hz, err := c.Healthz(ctx)
	if err != nil || hz.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", hz, err)
	}
	resp, err := http.Get("http://" + addr + "/debug/slo")
	if err != nil {
		t.Fatalf("/debug/slo: %v", err)
	}
	var slo struct{ SLOs []idl.SLOStatus }
	err = json.NewDecoder(resp.Body).Decode(&slo)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/slo: %v", err)
	}
	targets := map[string]time.Duration{}
	for _, s := range slo.SLOs {
		targets[s.Name] = time.Duration(s.TargetNS)
	}
	for _, name := range []string{"engine.query", "engine.exec", "engine.call"} {
		if targets[name] != 5*time.Millisecond {
			t.Errorf("/debug/slo %s target=%v, want the -slo-target 5ms (all: %v)", name, targets[name], targets)
		}
	}

	// SIGTERM → graceful drain → exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("exit %d after SIGTERM, want 0\nstdout: %s", got, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("idld did not exit after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "drained, exiting") {
		t.Errorf("drain banner missing from stdout: %q", s)
	}

	// The drained WAL recovers the served mutation.
	wcfg := workload.Default()
	db, _, err := idl.OpenWAL(walDir, idl.WALOptions{
		Bootstrap: func(db *idl.DB) error { return workload.Apply(db, wcfg) },
	})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer db.Close()
	got, err := db.Query("?.euter.r(.stkCode=walco, .clsPrice=P)")
	if err != nil {
		t.Fatalf("recovered query: %v", err)
	}
	if got.Len() != 1 {
		t.Errorf("recovered %d walco rows, want 1", got.Len())
	}
	st, ok := db.WALStatus()
	if !ok {
		t.Fatal("wal status unavailable after recovery")
	}
	if st.CheckpointLSN == 0 {
		t.Errorf("drain left no checkpoint: %+v", st)
	}
}

// TestBootstrapScript runs a script before serving and checks its
// definitions are visible on the wire.
func TestBootstrapScript(t *testing.T) {
	script := filepath.Join(t.TempDir(), "boot.idl")
	src := ".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P);\n"
	if err := os.WriteFile(script, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, out, code := startIdld(t, []string{"-addr", "127.0.0.1:0", "-demo", "-script", script})

	c := server.NewClient("http://" + addr)
	ans, err := c.Query(context.Background(), "?.dbI.p(.stk=S, .price>100)")
	if err != nil {
		t.Fatalf("query over bootstrap view: %v", err)
	}
	if ans.Rows == 0 {
		t.Error("bootstrap view served an empty answer")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("exit %d, want 0\nstdout: %s", got, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("idld did not exit after SIGTERM")
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"positional"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("positional-arg exit %d, want 2", code)
	}
	if code := run([]string{"-durability", "bogus", "-wal", t.TempDir()}, &out, &errOut, nil); code != 1 {
		t.Fatalf("bad durability exit %d, want 1", code)
	}
	if code := run([]string{"-script", filepath.Join(t.TempDir(), "missing.idl")}, &out, &errOut, nil); code != 1 {
		t.Fatalf("missing script exit %d, want 1", code)
	}
}
