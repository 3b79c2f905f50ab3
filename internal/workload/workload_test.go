package workload

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"idl"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/qlog"
	"idl/internal/stocks"
)

func TestMetaRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.BestEffort = true
	cfg.ChaosSeed = 7
	cfg.Discrepancies = 3
	cfg.NameConflict = true
	cfg.Retries = 0
	got, err := FromMeta(cfg.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip drifted:\nin  %+v\nout %+v", cfg, got)
	}

	// Missing keys keep zero values: an unknown environment replays onto
	// an empty DB rather than failing.
	zero, err := FromMeta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if zero != (Config{}) {
		t.Fatalf("FromMeta(nil) = %+v, want zero", zero)
	}

	if _, err := FromMeta(map[string]string{"stocks": "many"}); err == nil {
		t.Fatal("bad meta value should fail to parse")
	}
}

// capture runs stmts against a journaling DB built from cfg and returns
// the journal's header metadata and records.
func capture(t *testing.T, cfg Config, stmts []string) (*qlog.Header, []qlog.Record) {
	t.Helper()
	db, _, err := Open(cfg, Store{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.idlog")
	if err := db.StartJournal(path, cfg.Meta()); err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		// Statement failures are legitimate capture outcomes (a fail-fast
		// update under an injected fault journals its error), so they do
		// not abort the capture.
		if _, err := db.Load(s); err != nil {
			t.Logf("capture %q: %v", s, err)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := qlog.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, recs
}

// paperStatements is the round-trip workload: the §6 unified view, E5
// (highest per day) and E3 (any above) on all three schemas, an update
// in between so replay must reproduce the mutation too.
func paperStatements() []string {
	var stmts []string
	for _, r := range stocks.RulesUnified {
		stmts = append(stmts, r)
	}
	for _, qs := range [](map[string]string){stocks.QueryHighestPerDay(), stocks.QueryAnyAbove(150)} {
		keys := make([]string, 0, len(qs))
		for k := range qs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			stmts = append(stmts, qs[k])
		}
	}
	stmts = append(stmts,
		"?.euter.r+(.date=6/6/85, .stkCode=newco, .clsPrice=321)",
		"?.euter.r(.stkCode=newco, .clsPrice=P)",
		"?.dbI.p(.stk=newco, .price=P)",
	)
	return stmts
}

// TestReplayRoundTrip captures the paper workload (E5 and E3 across all
// three stock schemas plus an update) and replays it on an environment
// rebuilt from the journal header alone: every answer must byte-match.
func TestReplayRoundTrip(t *testing.T) {
	cfg := Default()
	hdr, recs := capture(t, cfg, paperStatements())

	rebuilt, err := FromMeta(hdr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != cfg {
		t.Fatalf("header meta rebuilt %+v, want %+v", rebuilt, cfg)
	}
	db, _, err := Open(rebuilt, Store{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(context.Background(), Embedded(db), recs, Options{})
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("replay diverged: %s", rep)
	}
	if rep.Total != len(recs) || rep.Total != len(paperStatements()) {
		t.Fatalf("replayed %d of %d records", rep.Total, len(recs))
	}
	if rep.ByKind[qlog.KindQuery] != 8 || rep.ByKind[qlog.KindRule] != 3 || rep.ByKind[qlog.KindExec] != 1 {
		t.Fatalf("kind counts = %v", rep.ByKind)
	}
	if len(rep.Outcomes) != rep.Total {
		t.Fatalf("outcomes = %d, want %d", len(rep.Outcomes), rep.Total)
	}
}

// TestReplayDetectsDivergence replays a journal against the wrong
// environment (different price seed) and expects answer mismatches.
func TestReplayDetectsDivergence(t *testing.T) {
	cfg := Default()
	_, recs := capture(t, cfg, paperStatements())

	wrong := cfg
	wrong.StockSeed = cfg.StockSeed + 1
	db, _, err := Open(wrong, Store{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(context.Background(), Embedded(db), recs, Options{})
	if rep.OK() {
		t.Fatal("replay on a different universe should diverge")
	}
	var sawAnswer bool
	for _, m := range rep.Mismatches {
		if m.Field == "answer" {
			sawAnswer = true
		}
	}
	if !sawAnswer {
		t.Fatalf("no answer mismatch in %v", rep.Mismatches)
	}
}

// TestReplayCallRecord journals a program call (made through the Go
// API, not a script) and replays it as the IDL update request qlog
// rendered it into.
func TestReplayCallRecord(t *testing.T) {
	cfg := Default()
	db, _, err := Open(cfg, Store{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "call.idlog")
	if err := db.StartJournal(path, cfg.Meta()); err != nil {
		t.Fatal(err)
	}
	for _, c := range stocks.ProgramInsStk {
		if err := db.DefineProgram(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Call("dbU", "insStk", map[string]any{
		"S": "zcorp", "D": idl.Date(85, 7, 1), "P": 55,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.euter.r(.stkCode=zcorp, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := qlog.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var call *qlog.Record
	for i := range recs {
		if recs[i].Kind == qlog.KindCall {
			call = &recs[i]
		}
	}
	if call == nil || call.Exec == nil {
		t.Fatalf("no call record with exec summary in %+v", recs)
	}
	fresh, _, err := Open(cfg, Store{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(context.Background(), Embedded(fresh), recs, Options{})
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("call replay diverged: %s", rep)
	}
	if rep.ByKind[qlog.KindCall] != 1 {
		t.Fatalf("kind counts = %v", rep.ByKind)
	}
}

// chaosConfig is the deterministic chaos environment: best-effort
// federation, no retries (so injected faults surface as degradation),
// and a breaker threshold high enough that the wall-clock cooldown can
// never influence the replayed schedule.
func chaosConfig(seed uint64) Config {
	cfg := Default()
	cfg.BestEffort = true
	cfg.ChaosSeed = seed
	cfg.Retries = 0
	cfg.BreakerThreshold = 1000
	return cfg
}

// TestChaosReplayDeterministic captures the workload against seeded
// fault-injected members and replays it from the journal header alone:
// the same seed must reproduce the same fault schedule, so every
// degraded report — down to the member error strings — must byte-match.
func TestChaosReplayDeterministic(t *testing.T) {
	cfg := chaosConfig(13)
	hdr, recs := capture(t, cfg, paperStatements())

	var degraded int
	for _, rec := range recs {
		if rec.Degraded != "" {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("chaos run produced no degraded records; pick another seed")
	}

	rebuilt, err := FromMeta(hdr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := Open(rebuilt, Store{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(context.Background(), Embedded(db), recs, Options{})
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("chaos replay diverged (%d degraded records): %s", degraded, rep)
	}
}

// TestReplayRecovered captures a degraded best-effort run (one member
// dead) and replays it on a healthy environment: strict mode must flag
// the degradation, recovered mode must accept the recorded rows as a
// subset of the healthy answer.
func TestReplayRecovered(t *testing.T) {
	cfg := Default()
	scfg := stocks.Config{Stocks: cfg.Stocks, Days: cfg.Days, Seed: cfg.StockSeed}
	u, _ := stocks.Universe(scfg)

	opts := idl.DefaultOptions()
	opts.BestEffort = true
	db := idl.OpenWithOptions(opts)
	for _, m := range []struct {
		name string
		dead bool
	}{{"euter", false}, {"chwab", true}} {
		v, _ := u.Get(m.name)
		src := idl.NewMemorySource(m.name, v.(*object.Tuple))
		if m.dead {
			src = federation.Inject(src, federation.InjectorConfig{ErrorRate: 1})
		}
		if err := db.Mount(m.name, src); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "degraded.idlog")
	if err := db.StartJournal(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>150)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("?.chwab.r(.date=D, .stk001=P)"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := qlog.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Degraded == "" {
			t.Fatalf("record %d not degraded: %+v", i, rec)
		}
	}

	healthy, _, err := Open(cfg, Store{})
	if err != nil {
		t.Fatal(err)
	}
	strict := Replay(context.Background(), Embedded(healthy), recs, Options{})
	if strict.OK() {
		t.Fatal("strict replay of a degraded journal on a healthy DB should diverge")
	}
	healthy2, _, err := Open(cfg, Store{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Replay(context.Background(), Embedded(healthy2), recs, Options{Recovered: true})
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			t.Error(m)
		}
		t.Fatalf("recovered replay diverged: %s", rep)
	}
	if rep.Recovered != len(recs) {
		t.Fatalf("recovered %d records, want %d", rep.Recovered, len(recs))
	}
}

func TestAnswerSubset(t *testing.T) {
	for _, tc := range []struct {
		recorded, replayed string
		want               bool
	}{
		{"S\nhp", "S\nhp", true},
		{"S", "S\nhp\nibm", true},                    // degraded empty ⊂ healthy rows
		{"S\nhp", "S\nhp\nibm", true},                // fewer rows
		{"S\nibm2", "S\nhp", false},                  // missing row
		{"S\nhp", "D\nhp", false},                    // different header
		{"false", "true", true},                      // boolean recovery
		{"true", "false", false},                     // boolean regression
		{"S\nhp\nibm", "S\nhp", false},               // replay lost rows
		{"S\tP\nhp\t5", "S\tP\nhp\t5\nibm\t6", true}, // multi-column rows
	} {
		if got := answerSubset(tc.recorded, tc.replayed); got != tc.want {
			t.Errorf("answerSubset(%q, %q) = %v, want %v", tc.recorded, tc.replayed, got, tc.want)
		}
	}
}

func TestLatencies(t *testing.T) {
	rep := &Report{}
	for i := 1; i <= 100; i++ {
		rep.Outcomes = append(rep.Outcomes, Outcome{
			Kind:       qlog.KindQuery,
			RecordedNS: int64(i) * int64(time.Millisecond),
			ReplayedNS: int64(i) * int64(time.Microsecond),
		})
	}
	recorded, replayed := rep.Latencies(qlog.KindQuery)
	if recorded.Count != 100 || replayed.Count != 100 {
		t.Fatalf("counts = %d / %d", recorded.Count, replayed.Count)
	}
	if recorded.P50 != 50*time.Millisecond || recorded.Max != 100*time.Millisecond {
		t.Fatalf("recorded = %+v", recorded)
	}
	if replayed.P99 != 99*time.Microsecond {
		t.Fatalf("replayed = %+v", replayed)
	}
	if none, _ := rep.Latencies("nope"); none.Count != 0 {
		t.Fatalf("unexpected outcomes for unknown kind: %+v", none)
	}
}

// TestOpenStores opens the demo workload over each store. A WAL session
// bootstraps the demo once and keeps its engine options across a
// checkpoint restore, which skips the bootstrap; a bad store fails to
// open.
func TestOpenStores(t *testing.T) {
	cfg := Default()
	cfg.Workers = 3
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		db, report, err := Open(cfg, Store{WAL: dir})
		if err != nil {
			t.Fatal(err)
		}
		if report == nil || (round == 1) != (report.CheckpointLSN > 0) {
			t.Fatalf("round %d: recovery report %v", round, report)
		}
		if db.Workers() != 3 {
			t.Errorf("round %d: workers = %d, want 3", round, db.Workers())
		}
		if res, err := db.Query("?.X"); err != nil || res.Len() != 3 {
			t.Fatalf("round %d: demo databases = %v, %v", round, res, err)
		}
		if _, err := db.Exec(fmt.Sprintf("?.euter.r+(.date=1/1/85, .stkCode=wal%d, .clsPrice=1)", round)); err != nil {
			t.Fatal(err)
		}
		if res, err := db.Query("?.euter.r(.stkCode=wal0)"); err != nil || !res.Bool() {
			t.Fatalf("round %d: logged row = %v, %v", round, res, err)
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mem, report, err := Open(cfg, Store{})
	if err != nil || report != nil || mem.Workers() != 3 {
		t.Fatalf("in-memory open: report %v, err %v", report, err)
	}
	snap := filepath.Join(t.TempDir(), "u.snap")
	if err := mem.Save(snap); err != nil {
		t.Fatal(err)
	}
	fromSnap, _, err := Open(Config{Workers: 2}, Store{Snapshot: snap})
	if err != nil || fromSnap.Workers() != 2 {
		t.Fatalf("snapshot open: %v", err)
	}
	if res, err := fromSnap.Query("?.X"); err != nil || res.Len() != 3 {
		t.Fatalf("snapshot universe = %v, %v", res, err)
	}

	for _, st := range []Store{
		{WAL: t.TempDir(), Durability: "paranoid"},
		{WAL: snap}, // a file, not a directory
		{Snapshot: filepath.Join(t.TempDir(), "missing.snap")},
	} {
		if _, _, err := Open(cfg, st); err == nil {
			t.Errorf("Open over %+v succeeded", st)
		}
	}
}
