package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idl"
)

func TestOpenDBDemo(t *testing.T) {
	db, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("?.X")
	if err != nil || res.Len() != 3 {
		t.Fatalf("demo databases = %v, %v", res, err)
	}
}

func TestOpenDBSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.idl")
	db, err := openDB(config{snapshot: path, demo: true}) // missing snapshot: start fresh + demo
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := openDB(config{snapshot: path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Query("?.euter.r(.stkCode=S)")
	if err != nil || !res.Bool() {
		t.Fatalf("restored universe: %v, %v", res, err)
	}
}

func TestExecuteScript(t *testing.T) {
	silenceStdout(t)
	db := idl.Open()
	db.Catalog().Insert("d", "r", idl.Tup("x", 1))
	script := `
		.v.p+(.x=X) <- .d.r(.x=X);
		?.v.p(.x=X);
		?.d.r+(.x=2)
	`
	if err := execute(db, script); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query("?.d.r(.x=X)")
	if res.Len() != 2 {
		t.Errorf("rows after script = %d", res.Len())
	}
	if err := execute(db, "?.broken("); err == nil {
		t.Error("parse error should surface")
	}
}

func TestMetaCommands(t *testing.T) {
	out := captureStdout(t, func() {
		db, _ := openDB(config{demo: true})
		db.Query("?.euter.r(.stkCode=S)") // populate metrics for \stats
		for _, cmd := range []string{
			`\help`, `\dbs`, `\rels euter`, `\rels`, `\rels nosuch`,
			`\cat`, `\stats`, `\views`, `\programs`, `\estats`, `\save`, `\bogus`,
		} {
			if !meta(db, config{}, cmd) {
				t.Errorf("%s should not exit", cmd)
			}
		}
		if meta(db, config{}, `\quit`) {
			t.Error(`\quit should exit`)
		}
	})
	for _, want := range []string{"euter", "chwab", "ource", "usage:", "unknown meta-command"} {
		if !strings.Contains(out, want) {
			t.Errorf("meta output missing %q", want)
		}
	}
}

// TestMetaStats: \stats renders the metrics registry (query counters
// recorded by the engine) and \reset-stats zeroes it.
func TestMetaStats(t *testing.T) {
	db, _ := openDB(config{demo: true})
	db.Metrics() // enable before the query so engine counters record
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { meta(db, config{}, `\stats`) })
	for _, want := range []string{"engine.query.count", "engine.query.latency", "engine.eval.elements_scanned"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\stats output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() {
		meta(db, config{}, `\reset-stats`)
		meta(db, config{}, `\stats`)
	})
	if !strings.Contains(out, "reset") {
		t.Errorf("\\reset-stats should confirm:\n%s", out)
	}
	if db.Metrics().CounterValue("engine.query.count") != 0 {
		t.Error("reset should zero counters")
	}
	st := db.Stats()
	if st.ElementsScanned != 0 {
		t.Error("reset should zero evaluator counters")
	}
}

// TestMetaStatsFederation: with chaos members mounted, \stats surfaces
// per-member resilience counters and the last sync report.
func TestMetaStatsFederation(t *testing.T) {
	cfg := defaultConfig()
	cfg.demo = true
	cfg.bestEffort = true
	cfg.retries = 0
	cfg.chaosSeed = 7
	db, err := openDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	silenceStdout(t)
	if err := execute(db, "?.euter.r(.stkCode=S);\n?.chwab.r(.date=D);"); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { meta(db, config{}, `\stats`) })
	for _, want := range []string{"federation.member.euter.ops", "federation.sync.count", "federation:"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\stats output missing %q:\n%s", want, out)
		}
	}
}

// TestMetaExplainAnalyze: the analyze variant runs the query and
// annotates every step with actuals.
func TestMetaExplainAnalyze(t *testing.T) {
	db, _ := openDB(config{demo: true})
	out := captureStdout(t, func() {
		meta(db, config{}, `\explain analyze ?.euter.r(.stkCode=S, .clsPrice=P)`)
	})
	for _, want := range []string{"actual rows=", "total time="} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() { meta(db, config{}, `\explain analyze`) })
	if !strings.Contains(out, "usage:") {
		t.Errorf("bare analyze should print usage:\n%s", out)
	}
}

// TestMetaTrace: \trace on/show/off drives the span tracer.
func TestMetaTrace(t *testing.T) {
	db, _ := openDB(config{demo: true})
	out := captureStdout(t, func() {
		meta(db, config{}, `\trace show`)
		meta(db, config{}, `\trace on 4`)
	})
	if !strings.Contains(out, "tracing is off") || !strings.Contains(out, "tracing on") {
		t.Errorf("trace toggle output:\n%s", out)
	}
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\trace show`) })
	if !strings.Contains(out, "query") || !strings.Contains(out, "rows=") {
		t.Errorf("trace show should render the query span tree:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\trace off`) })
	if !strings.Contains(out, "tracing off") {
		t.Errorf("trace off output:\n%s", out)
	}
}

func TestMetaSave(t *testing.T) {
	silenceStdout(t)
	db, _ := openDB(config{demo: true})
	path := filepath.Join(t.TempDir(), "s.idl")
	if !meta(db, config{}, `\save `+path) {
		t.Fatal("save should not exit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("snapshot not written: %v", err)
	}
}

func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	t.Cleanup(func() {
		os.Stdout = old
		devNull.Close()
	})
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 1024)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out
}

// TestTokensFlag pins `idl -tokens -e` byte for byte on a statement that
// uses every token kind, the paper's operator glyphs and two lexical
// errors; the lexer resumes after each error.
func TestTokensFlag(t *testing.T) {
	src := `?.a.B(.c="s\"q", .d=1, .e=2.5, .f=3/3/85, X != Y, X ≠ 0, -.g, +.h=1*2, ~.i, ¬.j, !.k) ; ` +
		`.r.s(.x=X) <- .t.u(.x<X, .y<=1, .z>2, .w>=3, .v≤4, .u≥5), .é.ü ; .p.q() -> .r.s-(.y=1) ; ` +
		`.a ← .b ; .c → .d @ 13/1/85 x`
	want := `? . identifier "a" . variable "B" ( . identifier "c" = string "s\"q" , . identifier "d" = integer "1" , ` +
		`. identifier "e" = float "2.5" , . identifier "f" = date "3/3/85" , variable "X" != variable "Y" , ` +
		`variable "X" != integer "0" , - . identifier "g" , + . identifier "h" = integer "1" * integer "2" , ` +
		`~ . identifier "i" , ~ . identifier "j" , ~ . identifier "k" ) ; . identifier "r" . identifier "s" ( ` +
		`. identifier "x" = variable "X" ) <- . identifier "t" . identifier "u" ( . identifier "x" < variable "X" , ` +
		`. identifier "y" <= integer "1" , . identifier "z" > integer "2" , . identifier "w" >= integer "3" , ` +
		`. identifier "v" <= integer "4" , . identifier "u" >= integer "5" ) , . identifier "é" . identifier "ü" ; ` +
		`. identifier "p" . identifier "q" ( ) -> . identifier "r" . identifier "s" - ( . identifier "y" = integer "1" ) ; ` +
		`. identifier "a" <- . identifier "b" ; . identifier "c" -> . identifier "d" ERROR ERROR identifier "x"` + "\n"
	var err error
	got := captureStdout(t, func() { err = run(config{tokens: true, expr: src}) })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("-tokens printed\n%s\nwant\n%s", got, want)
	}
}

// TestChaosRunDeterministic is the CLI-level reproducibility guarantee:
// the same -chaos-seed over the same script yields byte-identical
// output, degraded reports included.
func TestChaosRunDeterministic(t *testing.T) {
	script := `?.euter.r(.stkCode=S, .clsPrice=P);
?.chwab.r(.date=D);
?.ource.stk001(.clsPrice=P);
?.euter.r(.stkCode=S, .clsPrice>90);`
	run := func() string {
		return captureStdout(t, func() {
			cfg := defaultConfig()
			cfg.demo = true
			cfg.bestEffort = true
			cfg.retries = 0 // no retries: injected faults surface as degradation
			cfg.chaosSeed = 7
			db, err := openDB(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := execute(db, script); err != nil {
				t.Error(err)
			}
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("chaos run not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "degraded:") {
		t.Errorf("seed 7 should degrade at least one statement:\n%s", a)
	}
}

func TestShippedDemoScript(t *testing.T) {
	silenceStdout(t)
	db, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../scripts/stocks.idl")
	if err != nil {
		t.Fatal(err)
	}
	if err := execute(db, string(src)); err != nil {
		t.Fatalf("demo script failed: %v", err)
	}
	// The script's final state: newco present in every schema.
	res, err := db.Query("?.ource.newco(.clsPrice=P)")
	if err != nil || !res.Bool() {
		t.Errorf("script end state: %v, %v", res, err)
	}
}

// TestDebugServer: -debug-addr serves metrics JSON, expvar, and the
// pprof index.
func TestDebugServer(t *testing.T) {
	db, _ := openDB(config{demo: true})
	db.Metrics()
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	addr, err := startDebugServer("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	metrics := get("/debug/metrics")
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(metrics), &snap); err != nil {
		t.Fatalf("/debug/metrics is not JSON: %v\n%s", err, metrics)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "engine.query.count" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/metrics missing engine.query.count:\n%s", metrics)
	}
	if !strings.Contains(get("/debug/vars"), "idl.metrics") {
		t.Error("/debug/vars missing idl.metrics")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}
	if !strings.Contains(get("/debug/metrics?format=table"), "engine.query.count") {
		t.Error("/debug/metrics?format=table missing engine.query.count")
	}
	events := get("/debug/events")
	var evs []idl.Event
	if err := json.Unmarshal([]byte(events), &evs); err != nil {
		t.Fatalf("/debug/events is not JSON: %v\n%s", err, events)
	}
	if len(evs) == 0 || evs[len(evs)-1].Kind != idl.EventQuery {
		t.Errorf("/debug/events should end with the query event: %+v", evs)
	}
	if !strings.Contains(get("/debug/events?format=text"), "query") {
		t.Error("/debug/events?format=text missing the query event")
	}
}

// TestMetaFlightRec: \flightrec dumps the recorder, json mode emits a
// JSON array, clear empties it.
func TestMetaFlightRec(t *testing.T) {
	db, _ := openDB(config{demo: true})
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { meta(db, config{}, `\flightrec`) })
	if !strings.Contains(out, "query") || !strings.Contains(out, "?.euter.r(.stkCode=S)") {
		t.Errorf("\\flightrec should show the query event:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, config{}, `\flightrec json`) })
	var evs []idl.Event
	if err := json.Unmarshal([]byte(out), &evs); err != nil {
		t.Fatalf("\\flightrec json is not JSON: %v\n%s", err, out)
	}
	if len(evs) == 0 {
		t.Error("\\flightrec json should include the query event")
	}
	out = captureStdout(t, func() {
		meta(db, config{}, `\flightrec clear`)
		meta(db, config{}, `\flightrec`)
	})
	if !strings.Contains(out, "cleared") || !strings.Contains(out, "off (-flightrec 0) or empty") {
		t.Errorf("clear should empty the recorder:\n%s", out)
	}
}

// TestMetaStatsJSON: \stats json emits the registry as JSON.
func TestMetaStatsJSON(t *testing.T) {
	db, _ := openDB(config{demo: true})
	db.Metrics()
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { meta(db, config{}, `\stats json`) })
	var snap struct {
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("\\stats json is not JSON: %v\n%s", err, out)
	}
	if len(snap.Counters) == 0 {
		t.Errorf("\\stats json should include counters:\n%s", out)
	}
}

// TestNoMetricsHonored: with -no-metrics the session must not attach a
// registry — not even via \stats, which used to lazily re-enable it.
func TestNoMetricsHonored(t *testing.T) {
	db, err := openDB(config{demo: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.noMetrics = true
	cleanup, err := setupObservability(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { meta(db, cfg, `\stats`) })
	if !strings.Contains(out, "metrics disabled (-no-metrics)") {
		t.Errorf("\\stats should refuse under -no-metrics:\n%s", out)
	}
	if db.MetricsEnabled() {
		t.Error("-no-metrics session must not have a metrics registry attached")
	}
}

// TestJournalFlag: a session with -journal leaves a replayable .idlog
// behind whose header carries the workload configuration.
func TestJournalFlag(t *testing.T) {
	cfg := defaultConfig()
	cfg.demo = true
	cfg.journal = filepath.Join(t.TempDir(), "session.idlog")
	db, err := openDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanup, err := setupObservability(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	silenceStdout(t)
	if err := execute(db, "?.euter.r(.stkCode=S, .clsPrice=P);"); err != nil {
		t.Fatal(err)
	}
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := idl.ReadJournal(cfg.journal)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Meta["demo"] != "true" {
		t.Errorf("journal header meta = %v", hdr.Meta)
	}
	if len(recs) != 1 || recs[0].Kind != idl.EventQuery {
		t.Errorf("journal records = %+v", recs)
	}
}
