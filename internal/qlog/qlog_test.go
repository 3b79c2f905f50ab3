package qlog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	for i := 1; i <= 6; i++ {
		r.Put(&Event{Seq: uint64(i), Kind: KindQuery})
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(i + 3); e.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if r.Total() != 6 {
		t.Errorf("total = %d, want 6", r.Total())
	}
}

// TestRingTail: the tail is the last events published, in sequence
// order, and its slice holds only them — an exemplar that keeps it keeps
// no more of the ring alive.
func TestRingTail(t *testing.T) {
	r := NewRing(8)
	if got := r.Tail(3); len(got) != 0 {
		t.Fatalf("empty ring tail = %v", got)
	}
	for i := 1; i <= 2; i++ {
		r.Put(&Event{Seq: uint64(i)})
	}
	if got := r.Tail(3); len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("short ring tail = %v", got)
	}
	// Published out of sequence order, as concurrent operations finish:
	// the tail is the last three published, in sequence order.
	for _, seq := range []uint64{4, 3, 6, 5, 8, 7, 10, 9, 12, 11} {
		r.Put(&Event{Seq: seq})
	}
	got := r.Tail(3)
	if len(got) != 3 || cap(got) != 3 {
		t.Fatalf("tail len/cap = %d/%d, want 3/3", len(got), cap(got))
	}
	for i, want := range []uint64{9, 11, 12} {
		if got[i].Seq != want {
			t.Errorf("tail[%d].Seq = %d, want %d", i, got[i].Seq, want)
		}
	}
	if got := r.Tail(100); len(got) != 8 {
		t.Fatalf("tail(100) len = %d, want the ring's 8", len(got))
	}
	var nilRing *Ring
	if nilRing.Tail(3) != nil || r.Tail(0) != nil {
		t.Fatal("nil ring or n <= 0 should give nil")
	}
}

func TestRingNilAndDisabled(t *testing.T) {
	var r *Ring
	r.Put(&Event{Seq: 1})
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v, want nil", got)
	}
	if NewRing(0) != nil || NewRing(-1) != nil {
		t.Fatal("NewRing(<=0) should be nil")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Put(&Event{Seq: uint64(w*1000 + i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range r.Snapshot() {
				_ = e.Seq
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", r.Total())
	}
}

func TestEventRendering(t *testing.T) {
	e := &Event{
		Seq: 7, Kind: KindQuery, Text: "?.euter.r(X)", Rows: 3,
		Duration: 1500 * time.Microsecond,
		Skipped:  []string{".chwab.stk(...)"},
		Degraded: "degraded: 1/3 member databases unreachable\n  chwab: timeout",
	}
	s := e.String()
	for _, want := range []string{"#7", "query", "1.5ms", "rows=3", "skipped=[.chwab.stk(...)]", `degraded="degraded: 1/3 member databases unreachable"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	red := e.Redacted()
	if strings.Contains(red, "1.5ms") {
		t.Errorf("Redacted() = %q, should not carry duration", red)
	}
	if !strings.Contains(red, "rows=3") {
		t.Errorf("Redacted() = %q, should keep rows", red)
	}
}

func TestDigestStable(t *testing.T) {
	a, b := Digest("?.euter.r(X)"), Digest("?.euter.r(X)")
	if a != b || len(a) != 16 {
		t.Fatalf("digest unstable or wrong width: %q vs %q", a, b)
	}
	if Digest("x") == Digest("y") {
		t.Fatal("distinct inputs collided")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.idlog")
	j, err := Create(path, map[string]string{"demo": "1", "seed": "1991"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindRule, Text: "all.r(X) :- .a.r(X)."},
		{Kind: KindQuery, Text: "?all.r(X)", Rows: 2, Answer: "X\n1\n2", NS: 1234},
		{Kind: KindExec, Text: "+.a.r(3)", Exec: &ExecSummary{ElemsInserted: 1, Bindings: 1}},
		{Kind: KindQuery, Text: "?bad(", Err: "parse error"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	hdr, got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Format != FormatName || hdr.Version != FormatVersion {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Meta["seed"] != "1991" {
		t.Fatalf("meta = %v", hdr.Meta)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Seq != i {
			t.Errorf("rec %d Seq = %d", i, rec.Seq)
		}
		if rec.Text != recs[i].Text || rec.Answer != recs[i].Answer || rec.Err != recs[i].Err {
			t.Errorf("rec %d = %+v, want %+v", i, rec, recs[i])
		}
	}
	if got[2].Exec == nil || got[2].Exec.ElemsInserted != 1 {
		t.Errorf("exec summary lost: %+v", got[2].Exec)
	}
}

func TestJournalAppendContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.idlog")
	j, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Record{Kind: KindQuery, Text: "?a(X)"})
	j.Close()

	j2, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Records() != 1 {
		t.Fatalf("pre-existing records = %d, want 1", j2.Records())
	}
	j2.Append(Record{Kind: KindQuery, Text: "?b(X)"})
	j2.Close()

	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.idlog")
	if err := os.WriteFile(path, []byte("{\"format\":\"other\",\"version\":9}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, nil); err == nil {
		t.Fatal("Create accepted a foreign journal")
	}
	if _, _, err := ReadJournal(path); err == nil {
		t.Fatal("ReadJournal accepted a foreign journal")
	}
}

func TestRecorderPipeline(t *testing.T) {
	rec := NewRecorder(8)
	var logBuf bytes.Buffer
	rec.SetLogger(&logBuf)
	path := filepath.Join(t.TempDir(), "w.idlog")
	j, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetJournal(j)

	op := rec.Begin(KindQuery)
	if op == nil {
		t.Fatal("Begin returned nil with sinks attached")
	}
	op.SetText("?.euter.r(X)")
	op.SetPlanDigest("1. [query/scan] .euter.r(X)")
	if !op.Journaling() {
		t.Fatal("op should be journaling")
	}
	op.SetAnswer("X\n1", 1)
	op.SetDegraded("degraded: 1/2 member databases unreachable", []string{".chwab.stk(...)"})
	op.End(nil)

	rec.Emit(KindRule, "v(X) :- .a.r(X).", nil)
	rec.Emit(KindSync, "members=2 unreachable=0", nil)

	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("ring has %d events, want 3", len(evs))
	}
	q := evs[0]
	if q.Kind != KindQuery || q.Rows != 1 || q.Digest == "" || q.PlanDigest == "" || len(q.Skipped) != 1 {
		t.Fatalf("query event = %+v", q)
	}

	// Log: one JSON line per event, joinable via seq.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("log lines = %d, want 3: %q", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry["msg"] != KindQuery || entry["text"] != "?.euter.r(X)" || entry["level"] != "INFO" {
		t.Fatalf("log entry = %v", entry)
	}
	if entry["seq"] != float64(q.Seq) {
		t.Fatalf("log seq = %v, event seq = %d", entry["seq"], q.Seq)
	}

	// Journal: statement kinds only — the sync event must not appear.
	rec.SetJournal(nil)
	j.Close()
	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal records = %d, want 2 (query+rule, no sync)", len(recs))
	}
	if recs[0].Kind != KindQuery || recs[0].Answer != "X\n1" || recs[0].Degraded == "" {
		t.Fatalf("journal query rec = %+v", recs[0])
	}
	if recs[1].Kind != KindRule {
		t.Fatalf("journal rec 1 kind = %q", recs[1].Kind)
	}
}

func TestRecorderSlowPromotion(t *testing.T) {
	rec := NewRecorder(4)
	var logBuf bytes.Buffer
	rec.SetLogger(&logBuf)
	rec.SetSlowThreshold(time.Nanosecond) // everything is slow
	op := rec.Begin(KindQuery)
	op.SetText("?a(X)")
	time.Sleep(time.Microsecond)
	op.End(nil)
	var entry map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry["level"] != "WARN" || entry["slow"] != true {
		t.Fatalf("slow query not promoted: %v", entry)
	}
	if !rec.Events()[0].Slow {
		t.Fatal("ring event not marked slow")
	}
}

func TestRecorderErrorLevelAndAutoDump(t *testing.T) {
	rec := NewRecorder(4)
	var logBuf, dumpBuf bytes.Buffer
	rec.SetLogger(&logBuf)
	rec.SetAutoDump(&dumpBuf)

	op := rec.Begin(KindQuery)
	op.SetText("?unsafe(X)")
	op.End(errors.New("unsafe query"))

	var entry map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry["level"] != "ERROR" || entry["err"] != "unsafe query" {
		t.Fatalf("error entry = %v", entry)
	}
	dump := dumpBuf.String()
	if !strings.Contains(dump, "auto-dump: query failed: unsafe query") ||
		!strings.Contains(dump, "?unsafe(X)") {
		t.Fatalf("auto-dump = %q", dump)
	}
}

func TestRecorderBreakerTransition(t *testing.T) {
	rec := NewRecorder(4)
	var dumpBuf bytes.Buffer
	rec.SetAutoDump(&dumpBuf)
	rec.BreakerTransition("chwab", "closed", "open")
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != KindBreaker || evs[0].Member != "chwab" || evs[0].Text != "closed -> open" {
		t.Fatalf("breaker event = %+v", evs[0])
	}
	if !strings.Contains(dumpBuf.String(), `breaker opened on member "chwab"`) {
		t.Fatalf("no auto-dump on breaker open: %q", dumpBuf.String())
	}
	dumpBuf.Reset()
	rec.BreakerTransition("chwab", "open", "half-open")
	if dumpBuf.Len() != 0 {
		t.Fatal("auto-dump fired on non-open transition")
	}
}

func TestRecorderInactive(t *testing.T) {
	rec := NewRecorder(0)
	if rec.Active() {
		t.Fatal("recorder with no sinks reports active")
	}
	if op := rec.Begin(KindQuery); op != nil {
		t.Fatal("Begin should return nil when inactive")
	}
	// nil op is inert end to end.
	var op *Op
	op.SetText("x")
	op.SetRows(1)
	op.SetAnswer("a", 1)
	op.SetExec(ExecSummary{}, 0)
	op.SetDegraded("d", nil)
	op.SetPlanDigest("p")
	if op.Journaling() || op.Logging() || op.Seq() != 0 {
		t.Fatal("nil op should report inactive")
	}
	if ctx := op.Context(context.Background()); OpID(ctx) != 0 {
		t.Fatal("nil op should not tag ctx")
	}
	op.End(nil)

	var nilRec *Recorder
	nilRec.Emit(KindRule, "x", nil)
	nilRec.BreakerTransition("a", "closed", "open")
	if nilRec.Begin(KindQuery) != nil || nilRec.Active() {
		t.Fatal("nil recorder should be inert")
	}
}

func TestOpContextID(t *testing.T) {
	rec := NewRecorder(4)
	op := rec.Begin(KindQuery)
	ctx := op.Context(context.Background())
	if OpID(ctx) != op.Seq() || op.Seq() == 0 {
		t.Fatalf("OpID = %d, want %d", OpID(ctx), op.Seq())
	}
	if OpID(context.Background()) != 0 {
		t.Fatal("background ctx should have no op ID")
	}
}

func TestRecorderConcurrentJournal(t *testing.T) {
	rec := NewRecorder(16)
	path := filepath.Join(t.TempDir(), "w.idlog")
	j, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetJournal(j)
	var wg sync.WaitGroup
	const workers, per = 4, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op := rec.Begin(KindQuery)
				op.SetText(fmt.Sprintf("?q%d_%d(X)", w, i))
				op.SetAnswer("X\n1", 1)
				op.End(nil)
			}
		}(w)
	}
	wg.Wait()
	rec.SetJournal(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("journal records = %d, want %d", len(recs), workers*per)
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("rec %d has seq %d: journal sequence not dense", i, rec.Seq)
		}
	}
}
