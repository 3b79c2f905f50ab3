package idl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"idl/internal/obs"
)

// Trace export tests: every operation mints one trace ID at the facade,
// and the ID joins the operation's span tree, its federation member
// fetches, its WAL commit, and its flight-recorder event.

func attrStr(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func attrInt(s *obs.Span, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Int
		}
	}
	return 0
}

func TestTracesRequireTracing(t *testing.T) {
	db := Open()
	if _, err := db.Traces(); err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Fatalf("Traces without a tracer = %v", err)
	}
	if err := db.ExportTraces(io.Discard); err == nil {
		t.Fatal("ExportTraces without a tracer should fail")
	}
}

func TestTraceIDFormatAndUniqueness(t *testing.T) {
	db := Open()
	if _, err := db.Catalog().Insert("d", "r", Tup("x", 1)); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(8)
	for i := 0; i < 3; i++ {
		if _, err := db.Query("?.d.r(.x=X)"); err != nil {
			t.Fatal(err)
		}
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	queries := 0
	for _, tr := range traces {
		if tr.Root.Name != "query" {
			continue
		}
		queries++
		if !hexID.MatchString(tr.TraceID) {
			t.Errorf("trace id %q is not 16 hex digits", tr.TraceID)
		}
		if seen[tr.TraceID] {
			t.Errorf("duplicate trace id %q", tr.TraceID)
		}
		seen[tr.TraceID] = true
	}
	if queries != 3 {
		t.Errorf("expected 3 query traces, got %d", queries)
	}
}

// TestHex16MatchesSprintf: a minted trace ID is spelled exactly as fmt's
// %016x spells it.
func TestHex16MatchesSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xab, 0x9e3779b97f4a7c15, math.MaxUint64} {
		if got, want := hex16(v), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("hex16(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestTraceExportCorrelation is the acceptance path: a durable federated
// update's exported trace contains the member fetch and the WAL commit
// as root spans sharing the operation's trace ID, and the
// flight-recorder event carries the same ID.
func TestTraceExportCorrelation(t *testing.T) {
	db, _, err := OpenWAL(t.TempDir(), WALOptions{Durability: DurabilitySync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Catalog().Insert("euter", "r",
		Tup("date", Date(85, 3, 1), "stkCode", "hp", "clsPrice", 50)); err != nil {
		t.Fatal(err)
	}
	member := NewMemorySource("mem1", Tup("quotes", SetOf(
		Tup("date", Date(85, 3, 1), "clsPrice", 11))))
	if err := db.Mount("mem1", member); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(32)
	if _, err := db.Exec("?.euter.r+(.date=3/4/85,.stkCode=dec,.clsPrice=80)"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.ExportTraces(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, buf.String())
	}
	byName := map[string][]TraceRecord{}
	for _, tr := range doc.Traces {
		byName[tr.Root.Name] = append(byName[tr.Root.Name], tr)
	}
	execs := byName["exec"]
	if len(execs) != 1 {
		t.Fatalf("expected one exec trace, got %d:\n%s", len(execs), buf.String())
	}
	tid := execs[0].TraceID
	if tid == "" {
		t.Fatalf("exec trace has no trace id:\n%s", buf.String())
	}
	for _, name := range []string{"federation.fetch", "wal.commit"} {
		found := false
		for _, tr := range byName[name] {
			if tr.TraceID == tid {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s span shares the exec trace id %s:\n%s", name, tid, buf.String())
		}
	}
	// The WAL commit span names the LSN it committed, for joining
	// against the log offline.
	for _, tr := range byName["wal.commit"] {
		if attrInt(tr.Root, "lsn") <= 0 {
			t.Errorf("wal.commit span missing lsn: %+v", tr.Root.Attrs)
		}
		if attrStr(tr.Root, "type") != "exec" {
			t.Errorf("wal.commit span type = %q, want exec", attrStr(tr.Root, "type"))
		}
	}
	for _, ev := range db.Events() {
		if ev.Kind == EventExec && ev.TraceID != tid {
			t.Errorf("exec event trace id %q != span trace id %q", ev.TraceID, tid)
		}
	}
}

// TestTraceJournalCorrelation: with a workload journal attached, the
// journal record for an operation carries the same trace ID as its
// exported span tree.
func TestTraceJournalCorrelation(t *testing.T) {
	db := Open()
	if _, err := db.Catalog().Insert("d", "r", Tup("x", 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	db.EnableTracing(8)
	if _, err := db.Query("?.d.r(.x=X)"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	traces, err := db.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var tid string
	for _, tr := range traces {
		if tr.Root.Name == "query" {
			tid = tr.TraceID
		}
	}
	if tid == "" {
		t.Fatal("no query trace recorded")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"trace_id":"`+tid+`"`) {
		t.Errorf("journal record missing trace id %s:\n%s", tid, raw)
	}
}
