package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idl"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGoldenWALSession pins the durable-session CLI surface byte for
// byte: the recovery banner on a fresh directory, updates against all
// three stock schemas, \wal and \checkpoint output, and the banner a
// second session prints when it recovers the first one's work. The WAL
// directory is the only nondeterministic part of the output, so it is
// rewritten to WALDIR before comparison.
func TestGoldenWALSession(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.demo = true
	cfg.wal = dir

	out := captureStdout(t, func() {
		db, err := openDB(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		script := `?.euter.r+(.date=1/7/85,.stkCode=stk001,.clsPrice=70);
?.chwab.r(.date=1/2/85, +.newco=99);
?.ource.newco+(.date=1/2/85,.clsPrice=99);`
		if err := execute(db, script); err != nil {
			t.Error(err)
		}
		meta(db, cfg, `\wal`)
		meta(db, cfg, `\checkpoint`)
		meta(db, cfg, `\wal`)
		if err := db.Close(); err != nil {
			t.Error(err)
		}

		// Second session: recover everything the first one committed.
		db2, err := openDB(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		meta(db2, cfg, `\wal`)
		if err := db2.Close(); err != nil {
			t.Error(err)
		}
	})
	got := strings.ReplaceAll(out, dir, "WALDIR")

	goldenPath := filepath.Join("testdata", "wal_session.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("WAL session output drift:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWALSessionRecoversState: the second session actually has the first
// session's mutations, across all three schemas.
func TestWALSessionRecoversState(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.demo = true
	cfg.wal = dir
	db, err := openDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := `?.euter.r+(.date=1/7/85,.stkCode=stk001,.clsPrice=70);
?.chwab.r(.date=1/2/85, +.newco=99);
?.ource.newco+(.date=1/2/85,.clsPrice=99);`
	if err := execute(db, script); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := openDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, q := range []string{
		"?.euter.r(.date=1/7/85,.stkCode=stk001,.clsPrice=70)",
		"?.chwab.r(.date=1/2/85,.newco=99)",
		"?.ource.newco(.date=1/2/85,.clsPrice=99)",
	} {
		res, err := db2.Query(q)
		if err != nil || !res.Bool() {
			t.Errorf("recovered session missing %s: %v, %v", q, res, err)
		}
	}
}

// TestWALSnapshotFlagConflict: -wal and -snapshot refuse to combine.
func TestWALSnapshotFlagConflict(t *testing.T) {
	cfg := defaultConfig()
	cfg.wal = t.TempDir()
	cfg.snapshot = filepath.Join(t.TempDir(), "u.idl")
	if _, err := openDB(cfg); err == nil {
		t.Fatal("-wal with -snapshot should fail")
	}
}

// TestParseDurability covers the -durability flag's vocabulary, as the
// session opener parses it.
func TestParseDurability(t *testing.T) {
	silenceStdout(t)
	cases := []struct {
		in   string
		want idl.Durability
		ok   bool
	}{
		{"sync", idl.DurabilitySync, true},
		{"", idl.DurabilitySync, true},
		{"group", idl.DurabilityGroup, true},
		{"off", idl.DurabilityOff, true},
		{"paranoid", 0, false},
	}
	for _, tc := range cases {
		db, err := openDB(config{wal: t.TempDir(), durability: tc.in})
		if (err == nil) != tc.ok {
			t.Errorf("-durability %q: err = %v", tc.in, err)
			continue
		}
		if err != nil {
			continue
		}
		if st, _ := db.WALStatus(); st.Durability != tc.want {
			t.Errorf("-durability %q = %v, want %v", tc.in, st.Durability, tc.want)
		}
		db.Close()
	}
}

// TestMetaWALWithoutLog: \wal and \checkpoint degrade gracefully on a
// session opened without -wal.
func TestMetaWALWithoutLog(t *testing.T) {
	db, _ := openDB(config{demo: true})
	out := captureStdout(t, func() {
		meta(db, config{}, `\wal`)
		meta(db, config{}, `\checkpoint`)
	})
	if !strings.Contains(out, "no write-ahead log attached") {
		t.Errorf("\\wal without a log:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("\\checkpoint without a log should error:\n%s", out)
	}
}
