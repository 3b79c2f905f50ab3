package idl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"idl/internal/federation"
)

// TestFlightRecorderGoldenDegraded captures the flight recorder after a
// best-effort degraded run — a live member answering and a dead member
// forcing a skipped conjunct — and compares the timing-redacted dump to
// a golden file. Regenerate with -update-golden.
func TestFlightRecorderGoldenDegraded(t *testing.T) {
	seed := Open()
	seedStocks(t, seed)
	members := memberTuples(t, seed)

	opts := DefaultOptions()
	opts.BestEffort = true
	fed := OpenWithOptions(opts)
	mustMount(t, fed, "euter", NewMemorySource("euter", members["euter"]))
	dead := federation.Inject(NewMemorySource("chwab", members["chwab"]), federation.InjectorConfig{ErrorRate: 1})
	mustMount(t, fed, "chwab", dead)

	if _, err := fed.Query("?.euter.r(.stkCode=S, .clsPrice=62)"); err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query("?.chwab.r(.date=D, .hp=P)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil || len(res.Degraded.Skipped) == 0 {
		t.Fatalf("expected a degraded answer with skipped conjuncts, got %+v", res.Degraded)
	}

	var buf bytes.Buffer
	fed.DumpEventsRedacted(&buf)
	got := buf.String()

	goldenPath := filepath.Join("testdata", "flightrec_degraded.golden")
	if *updateGolden {
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
		t.Errorf("flight recorder drift:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestJournalCapture(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	path := filepath.Join(t.TempDir(), "w.idlog")
	if err := db.StartJournal(path, map[string]string{"fixture": "paper"}); err != nil {
		t.Fatal(err)
	}
	if db.JournalPath() != path {
		t.Fatalf("JournalPath = %q", db.JournalPath())
	}

	if err := db.DefineView(".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("?.dbI.p(.stk=S, .price=P, .price>200)")
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	info, err := db.Exec("+.euter.r(.date=3/9/85, .stkCode=tandem, .clsPrice=19)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?bad("); err == nil {
		t.Fatal("parse error expected")
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if db.JournalPath() != "" {
		t.Fatalf("journal still attached after close: %q", db.JournalPath())
	}

	hdr, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Meta["fixture"] != "paper" {
		t.Fatalf("meta = %v", hdr.Meta)
	}
	// Parse failures never reach the recorder, so: rule, query, exec.
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3: %+v", len(recs), recs)
	}
	if recs[0].Kind != EventRule {
		t.Errorf("rec 0 kind = %q", recs[0].Kind)
	}
	if recs[1].Kind != EventQuery || recs[1].Answer != res.String() || recs[1].Rows != res.Len() {
		t.Errorf("rec 1 = %+v, want answer %q", recs[1], res.String())
	}
	if recs[2].Kind != EventExec || recs[2].Exec == nil || recs[2].Exec.ElemsInserted != info.ElemsInserted {
		t.Errorf("rec 2 = %+v", recs[2])
	}
}

func TestQueryIDJoinsSpans(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	tracer := db.EnableTracing(4)
	if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice=62)"); err != nil {
		t.Fatal(err)
	}
	evs := db.Events()
	var queryEv *Event
	for _, e := range evs {
		if e.Kind == EventQuery {
			queryEv = e
		}
	}
	if queryEv == nil {
		t.Fatal("no query event recorded")
	}
	roots := tracer.Recent()
	if len(roots) == 0 {
		t.Fatal("no spans recorded")
	}
	trace := ""
	for _, a := range roots[len(roots)-1].Attrs {
		if a.Key == "trace" {
			trace = a.Str
		}
	}
	if trace == "" || trace != queryEv.TraceID {
		t.Fatalf("span trace = %q, event trace = %q", trace, queryEv.TraceID)
	}
}

func TestSlowQueryPromotion(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var logBuf bytes.Buffer
	db.SetEventLog(&logBuf)
	db.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	var sawWarn bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if entry["msg"] == EventQuery {
			if entry["level"] != "WARN" || entry["slow"] != true {
				t.Fatalf("query entry not promoted: %v", entry)
			}
			if entry["plan_digest"] == nil || entry["digest"] == nil {
				t.Fatalf("query entry missing digests: %v", entry)
			}
			sawWarn = true
		}
	}
	if !sawWarn {
		t.Fatalf("no query log line in %q", logBuf.String())
	}
}

func TestAutoDumpOnQueryError(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var dump bytes.Buffer
	db.SetAutoDump(&dump)
	if _, err := db.Call("dbU", "nope", nil); err == nil {
		t.Fatal("unknown program call should fail")
	}
	out := dump.String()
	if !strings.Contains(out, "auto-dump: call failed") || !strings.Contains(out, "flight recorder:") {
		t.Fatalf("auto-dump = %q", out)
	}
}

func TestFlightRecorderResize(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if db.FlightRecorderSize() == 0 {
		t.Fatal("flight recorder should be on by default")
	}
	db.SetFlightRecorderSize(2)
	for i := 0; i < 5; i++ {
		if _, err := db.Query("?.euter.r(.stkCode=hp, .clsPrice=P)"); err != nil {
			t.Fatal(err)
		}
	}
	if evs := db.Events(); len(evs) != 2 {
		t.Fatalf("resized ring holds %d events, want 2", len(evs))
	}
	db.SetFlightRecorderSize(0)
	if db.FlightRecorderSize() != 0 || db.Events() != nil {
		t.Fatal("disabled recorder should be empty")
	}
	// With every sink off, the query path must not record anything.
	if _, err := db.Query("?.euter.r(.stkCode=hp, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	if db.Events() != nil {
		t.Fatal("events recorded while disabled")
	}
}

// TestConcurrentQueriesAgainstJournal is the -race stress for satellite
// coverage: concurrent readers and writers against one journaling DB,
// with flight-recorder snapshots racing the writes.
func TestConcurrentQueriesAgainstJournal(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	path := filepath.Join(t.TempDir(), "stress.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	db.SetEventLog(lockedWriter{&logMu, &logBuf})

	const readers, writers, per = 4, 2, 25
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stmt := fmt.Sprintf("+.scratch%d.r(.n=%d)", w, i)
				if _, err := db.Exec(stmt); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}(w)
	}
	// A dumper racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, e := range db.Events() {
				_ = e.String()
			}
		}
	}()
	wg.Wait()
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := readers*per + writers*per; len(recs) != want {
		t.Fatalf("journal has %d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("rec %d has seq %d: sequence not dense", i, rec.Seq)
		}
		if rec.Kind == EventQuery && rec.Answer == "" {
			t.Fatalf("query record %d has no answer", i)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
