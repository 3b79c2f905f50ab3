// Command idl is an interactive shell and script runner for the IDL
// engine.
//
// Usage:
//
//	idl [flags]                 interactive shell
//	idl -script file.idl        run a script, print results
//	idl -e '?.euter.r(.x=1)'    run one statement
//
// Flags:
//
//	-snapshot path   load the universe from a snapshot at start and save
//	                 it back on exit (created if missing)
//	-wal dir         durable session: log every committed mutation to a
//	                 write-ahead log in dir and recover whatever a
//	                 previous session left there (prints the recovery
//	                 banner at startup); incompatible with -snapshot
//	-durability m    with -wal: fsync policy — sync (fsync every commit,
//	                 the default), group (group-commit: fsync when enough
//	                 bytes accumulate), off (no fsync on commit)
//	-demo            preload the paper's three stock databases
//	-tokens          with -e: dump the token stream (debugging)
//	-best-effort     degrade queries gracefully when a federated member
//	                 database is unreachable (default: fail fast)
//	-timeout d       per-attempt timeout for federated member operations
//	-retries n       retry attempts for federated member operations
//	-chaos-seed n    with -demo: mount the stock databases as federated
//	                 members behind a seeded fault injector (0 = off);
//	                 the same seed reproduces the same fault schedule
//	-workers n       evaluate with n parallel workers: large scans
//	                 partition across workers, independent view rules run
//	                 concurrently, and federated member fetches overlap —
//	                 answers stay byte-identical to sequential evaluation
//	                 (0 or 1 = sequential)
//	-no-plan-cache   compile a fresh plan for every query instead of
//	                 reusing epoch-validated cached plans (answers are
//	                 unchanged; only compile work repeats)
//	-debug-addr a    serve debug endpoints on this address:
//	                 /debug/metrics (engine metrics, JSON or ?format=table),
//	                 /debug/events (flight recorder, JSON or ?format=text),
//	                 /debug/health (rolling-window health report),
//	                 /debug/slo (SLO burn rates only),
//	                 /debug/traces (exported span trees with trace IDs),
//	                 /debug/statements (statement digests; append a
//	                 fingerprint for one digest with its exemplars),
//	                 /debug/vars (expvar), /debug/pprof/ (profiles)
//	-journal path    append every statement and its answer to a .idlog
//	                 workload journal, replayable with idlload -check
//	-log path        structured event log: one JSON line per statement
//	                 ("-" = stderr)
//	-slow-query d    log statements slower than d at WARN (0 = off)
//	-flightrec n     flight recorder capacity (0 disables it)
//	-dump-on-error   dump the flight recorder to stderr when a statement
//	                 fails or a member's circuit breaker opens
//	-no-metrics      do not collect engine metrics for the session
//	-no-insights     do not accumulate per-statement query digests (on by
//	                 default: every statement folds into a digest keyed by
//	                 its AST fingerprint, with resource accounting and
//	                 adaptive slow-query capture; see \top, \statement)
//
// Shell meta-commands:
//
//	\dbs                       list databases
//	\rels <db>                 list relations in a database
//	\cat                       catalog statistics (tuples, attributes)
//	\stats [json]              engine metrics (counters, gauges, latency
//	                           histograms), federation member health, and
//	                           WAL status on durable sessions
//	\health [json]             rolling-window health: last-minute op
//	                           latencies (p50/p99/p999), SLO burn rates,
//	                           heaviest statement digests, durability
//	                           state
//	\top [calls|p99|rows|time] [k]
//	                           top statement digests by the given key
//	                           (default: time, k=10)
//	\statement <fingerprint>   one digest in full: plan-cache outcomes,
//	                           resource accounting, captured slow-query
//	                           exemplars with their trace trees
//	\reset-stats               zero the metrics and evaluator counters
//	\flightrec [json|clear]    dump (or clear) the flight recorder
//	\views                     registered view rules
//	\programs                  registered update programs and signatures
//	\save <path>               save a snapshot
//	\estats                    evaluator counters
//	\explain <query>           show the evaluation plan
//	\explain analyze <query>   run the query; show the plan with actual
//	                           rows, scans, probes, and per-conjunct time
//	\trace on|off|show         toggle span tracing / show recent traces
//	\workers [n]               show or set the parallel worker count
//	\plan-cache [clear]        plan cache counters (hits, misses,
//	                           evictions, resident plans, catalog epoch),
//	                           or clear the cached plans
//	\mvcc                      snapshot version-chain status: live
//	                           versions, pinned reader epochs, retained
//	                           bytes, freeze / GC / copy-on-write counts
//	\wal                       write-ahead log status (next LSN, records
//	                           appended, segments, last checkpoint)
//	\checkpoint                snapshot the state into the WAL directory
//	                           and truncate the log's sealed segments
//	\help                      this list
//	\quit                      exit
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"idl"
	"idl/internal/lex"
	"idl/internal/qlog"
	"idl/internal/workload"
)

// config collects everything the CLI needs to build and drive a DB.
type config struct {
	snapshot string
	script   string
	expr     string
	demo     bool
	tokens   bool

	// Durability: WAL directory and fsync policy (sync/group/off).
	wal        string
	durability string

	// Federation knobs.
	bestEffort bool
	timeout    time.Duration
	retries    int
	chaosSeed  uint64

	// Evaluation parallelism (0 or 1 = sequential).
	workers int

	// Planning: disable the epoch-keyed plan cache (B-series ablation).
	noPlanCache bool

	// Observability.
	debugAddr   string
	journal     string
	logPath     string
	slowQuery   time.Duration
	flightRec   int
	dumpOnError bool
	noMetrics   bool
	noInsights  bool
}

func defaultConfig() config {
	fed := idl.DefaultFederationConfig()
	return config{timeout: fed.Timeout, retries: fed.Retries, flightRec: qlog.DefaultRingSize, durability: "sync"}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.snapshot, "snapshot", "", "load/save the universe snapshot at this path")
	flag.StringVar(&cfg.wal, "wal", "", "write-ahead log directory: log committed mutations and recover at startup")
	flag.StringVar(&cfg.durability, "durability", cfg.durability, "with -wal: fsync policy — sync, group, or off")
	flag.StringVar(&cfg.script, "script", "", "run an IDL script file and exit")
	flag.StringVar(&cfg.expr, "e", "", "run one statement and exit")
	flag.BoolVar(&cfg.demo, "demo", false, "preload the paper's three stock databases")
	flag.BoolVar(&cfg.tokens, "tokens", false, "with -e: print the token stream instead of evaluating")
	flag.BoolVar(&cfg.bestEffort, "best-effort", false, "answer queries best-effort when a federated member is unreachable")
	flag.DurationVar(&cfg.timeout, "timeout", cfg.timeout, "per-attempt timeout for federated member operations")
	flag.IntVar(&cfg.retries, "retries", cfg.retries, "retry attempts for federated member operations")
	flag.Uint64Var(&cfg.chaosSeed, "chaos-seed", 0, "with -demo: mount the stock databases behind a seeded fault injector (0 = off)")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel evaluation workers; answers stay byte-identical to sequential (0 or 1 = sequential)")
	flag.BoolVar(&cfg.noPlanCache, "no-plan-cache", false, "compile a fresh plan for every query (disables the epoch-keyed plan cache)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /debug/metrics, /debug/events, /debug/vars, and /debug/pprof/ on this address")
	flag.StringVar(&cfg.journal, "journal", "", "append a replayable .idlog workload journal at this path")
	flag.StringVar(&cfg.logPath, "log", "", `structured event log path ("-" = stderr)`)
	flag.DurationVar(&cfg.slowQuery, "slow-query", 0, "log statements slower than this at WARN (0 = off)")
	flag.IntVar(&cfg.flightRec, "flightrec", cfg.flightRec, "flight recorder capacity in events (0 disables it)")
	flag.BoolVar(&cfg.dumpOnError, "dump-on-error", false, "dump the flight recorder to stderr on statement failure or breaker open")
	flag.BoolVar(&cfg.noMetrics, "no-metrics", false, "do not collect engine metrics for the session")
	flag.BoolVar(&cfg.noInsights, "no-insights", false, "do not accumulate per-statement query digests")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "idl:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	db, err := openDB(cfg)
	if err != nil {
		return err
	}
	cleanup, err := setupObservability(db, cfg)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		addr, err := startDebugServer(cfg.debugAddr, db)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/\n", addr)
	}
	switch {
	case cfg.tokens && cfg.expr != "":
		fmt.Println(lex.Describe(cfg.expr))
		return cleanup()
	case cfg.expr != "":
		if err := execute(db, cfg.expr); err != nil {
			cleanup()
			return err
		}
	case cfg.script != "":
		src, err := os.ReadFile(cfg.script)
		if err != nil {
			cleanup()
			return err
		}
		if err := execute(db, string(src)); err != nil {
			cleanup()
			return err
		}
	default:
		repl(db, cfg)
	}
	if cfg.snapshot != "" {
		if err := db.Save(cfg.snapshot); err != nil {
			cleanup()
			return fmt.Errorf("save snapshot: %w", err)
		}
	}
	cerr := cleanup()
	// Close the WAL last: deferred group-commit records sync here, so an
	// error means the tail of the session may not be durable.
	if err := db.Close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	return cerr
}

// setupObservability applies the session's observability flags: metrics,
// flight recorder size, event log, slow-query threshold, auto-dump, and
// the workload journal. The returned cleanup closes the journal and
// surfaces its sticky write error.
func setupObservability(db *idl.DB, cfg config) (cleanup func() error, err error) {
	// Collect metrics for the whole session (unless refused) so the first
	// \stats or a scrape of -debug-addr reflects every statement, not
	// just those after it. The registry costs nothing measurable (B11).
	if !cfg.noMetrics {
		db.Metrics()
	}
	if !cfg.noInsights {
		// Digests for the whole session. The slow-query log threshold
		// doubles as the absolute capture threshold; the ×4-of-own-p50
		// rule adaptively flags statements degrading relative to
		// themselves even when no absolute threshold is set.
		db.EnableInsights(idl.InsightsConfig{SlowThreshold: cfg.slowQuery, SlowFactor: 4})
	}
	db.SetFlightRecorderSize(cfg.flightRec)
	db.SetSlowQueryThreshold(cfg.slowQuery)
	if cfg.dumpOnError {
		db.SetAutoDump(os.Stderr)
	}
	if cfg.logPath != "" {
		if cfg.logPath == "-" {
			db.SetEventLog(os.Stderr)
		} else {
			f, err := os.OpenFile(cfg.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("event log: %w", err)
			}
			db.SetEventLog(f)
		}
	}
	if cfg.journal != "" {
		if err := db.StartJournal(cfg.journal, workloadConfig(cfg).Meta()); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return func() error {
		if err := db.CloseJournal(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		return nil
	}, nil
}

// workloadConfig renders the CLI flags as a workload configuration —
// the same structure idlload -check rebuilds from a journal header.
func workloadConfig(cfg config) workload.Config {
	w := workload.Default()
	w.Demo = cfg.demo
	w.BestEffort = cfg.bestEffort
	w.ChaosSeed = cfg.chaosSeed
	w.Timeout = cfg.timeout
	w.Retries = cfg.retries
	w.Workers = cfg.workers
	return w
}

// openDB opens the session through workload.Open. A durable session
// prints its recovery banner; a -snapshot file that does not exist yet
// starts a fresh universe (run saves it on exit).
func openDB(cfg config) (*idl.DB, error) {
	st := workload.Store{WAL: cfg.wal, Durability: cfg.durability}
	if cfg.snapshot != "" {
		if cfg.wal != "" {
			return nil, fmt.Errorf("-wal and -snapshot are mutually exclusive (the WAL checkpoints its own snapshots)")
		}
		if _, err := os.Stat(cfg.snapshot); err == nil {
			st.Snapshot = cfg.snapshot
		}
	}
	db, report, err := workload.Open(workloadConfig(cfg), st)
	if err != nil {
		return nil, err
	}
	if report != nil {
		fmt.Println(report.String())
	}
	if cfg.noPlanCache {
		db.SetPlanCaching(false)
	}
	return db, nil
}

// execute runs a script chunk and prints each statement's outcome.
func execute(db *idl.DB, src string) error {
	results, err := db.Load(src)
	for _, r := range results {
		printResult(r)
	}
	return err
}

func printResult(r *idl.ScriptResult) {
	switch r.Kind {
	case "rule":
		fmt.Printf("defined view rule: %s\n", r.Statement)
	case "clause":
		fmt.Printf("defined update program clause: %s\n", r.Statement)
	case "exec":
		fmt.Printf("ok: +%d tuples, -%d tuples, +%d attrs, -%d attrs, %d values set (%d bindings)\n",
			r.Exec.ElemsInserted, r.Exec.ElemsDeleted, r.Exec.AttrsCreated,
			r.Exec.AttrsDeleted, r.Exec.ValuesSet, r.Exec.Bindings)
	case "query":
		fmt.Println(r.Answer.String())
		if len(r.Answer.Vars) > 0 {
			fmt.Printf("(%d rows)\n", r.Answer.Len())
		}
		if r.Answer.Degraded != nil {
			fmt.Println(r.Answer.Degraded.String())
		}
	}
}

func repl(db *idl.DB, cfg config) {
	fmt.Println("IDL shell — Interoperable Database Language (SIGMOD 1991 reproduction)")
	fmt.Println(`type statements ending with ';', or \help for meta-commands`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("idl> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(db, cfg, trimmed) {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") || trimmed == "" {
			src := pending.String()
			pending.Reset()
			if strings.TrimSpace(src) != "" {
				if err := execute(db, src); err != nil {
					fmt.Println("error:", err)
				}
			}
		}
		prompt()
	}
}

// meta handles a \command; returns false to exit the shell.
func meta(db *idl.DB, cfg config, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\help`:
		fmt.Println(`\dbs \rels <db> \cat \stats [json] \health [json] \top [calls|p99|rows|time] [k] \statement <fp> \reset-stats \flightrec [json|clear] \views \programs \estats \explain [analyze] <query> \trace on|off|show \workers [n] \plan-cache [clear] \mvcc \wal \checkpoint \save <path> \quit`)
	case `\explain`:
		if len(fields) < 2 {
			fmt.Println("usage: \\explain [analyze] <query>")
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, `\explain`))
		var plan string
		var err error
		if fields[1] == "analyze" {
			rest = strings.TrimSpace(strings.TrimPrefix(rest, "analyze"))
			if rest == "" {
				fmt.Println("usage: \\explain analyze <query>")
				break
			}
			plan, err = db.ExplainAnalyze(rest)
		} else {
			plan, err = db.Explain(rest)
		}
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(plan)
	case `\dbs`:
		for _, d := range db.Catalog().Databases() {
			fmt.Println(d)
		}
	case `\rels`:
		if len(fields) < 2 {
			fmt.Println("usage: \\rels <db>")
			break
		}
		rels, err := db.Catalog().Relations(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, r := range rels {
			fmt.Println(r)
		}
	case `\cat`:
		for _, s := range db.Catalog().Stats() {
			fmt.Printf("%s.%s\t%d tuples\tattrs: %s\n", s.Database, s.Relation, s.Tuples, strings.Join(s.Attributes, ","))
		}
	case `\stats`:
		if cfg.noMetrics {
			// db.Metrics() would lazily attach a registry, silently undoing
			// the flag for the rest of the session.
			fmt.Println("metrics disabled (-no-metrics)")
			break
		}
		if len(fields) > 1 && fields[1] == "json" {
			if err := db.Metrics().WriteJSON(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
			break
		}
		snap := db.Metrics().Snapshot()
		if tbl := snap.Table(); tbl != "" {
			fmt.Print(tbl)
		} else {
			fmt.Println("no metrics recorded yet")
		}
		if rep := db.LastSyncReport(); rep != nil {
			fmt.Println("federation:", rep.String())
		}
		if st, ok := db.WALStatus(); ok {
			fmt.Println(st.String())
		}
	case `\health`:
		if cfg.noMetrics {
			fmt.Println("metrics disabled (-no-metrics)")
			break
		}
		db.Metrics() // health is a metrics product; attach lazily like \stats
		h, err := db.Health()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if len(fields) > 1 && fields[1] == "json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(h); err != nil {
				fmt.Println("error:", err)
			}
			break
		}
		fmt.Println(h.String())
	case `\flightrec`:
		mode := "text"
		if len(fields) > 1 {
			mode = fields[1]
		}
		switch mode {
		case "text":
			if len(db.Events()) == 0 {
				fmt.Println("flight recorder is off (-flightrec 0) or empty")
			} else {
				db.DumpEvents(os.Stdout)
			}
		case "json":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(db.Events()); err != nil {
				fmt.Println("error:", err)
			}
		case "clear":
			db.SetFlightRecorderSize(db.FlightRecorderSize())
			fmt.Println("flight recorder cleared")
		default:
			fmt.Println("usage: \\flightrec [json|clear]")
		}
	case `\reset-stats`:
		db.ResetMetrics()
		db.Engine().ResetStats()
		db.ResetStatements()
		fmt.Println("metrics, evaluator counters, and statement digests reset")
	case `\top`:
		metaTop(db, fields[1:])
	case `\statement`:
		if len(fields) < 2 {
			fmt.Println("usage: \\statement <fingerprint>")
			break
		}
		metaStatement(db, fields[1])
	case `\trace`:
		metaTrace(db, fields[1:])
	case `\workers`:
		if len(fields) < 2 {
			fmt.Printf("workers: %d\n", db.Workers())
			break
		}
		n := 0
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 {
			fmt.Println("usage: \\workers [n]  (n >= 0; 0 or 1 = sequential)")
			break
		}
		db.SetWorkers(n)
		fmt.Printf("workers: %d\n", db.Workers())
	case `\plan-cache`:
		if len(fields) > 1 {
			if fields[1] != "clear" {
				fmt.Println("usage: \\plan-cache [clear]")
				break
			}
			db.ClearPlanCache()
			fmt.Println("plan cache cleared")
			break
		}
		st := db.PlanCacheStats()
		fmt.Printf("hits=%d misses=%d evictions=%d plans=%d epoch=%d\n",
			st.Hits, st.Misses, st.Evictions, st.Size, st.Epoch)
		if cfg.noPlanCache {
			fmt.Println("plan cache disabled (-no-plan-cache)")
		}
	case `\mvcc`:
		st := db.MVCCStats()
		fmt.Printf("versions=%d/%d head-epoch=%d published=%t\n",
			st.LiveVersions, st.MaxRevisions, st.HeadEpoch, st.HeadPublished)
		fmt.Printf("pinned-readers=%d pinned-epochs=%v retained-bytes=%d\n",
			st.PinnedReaders, st.PinnedEpochs, st.RetainedBytes)
		fmt.Printf("freezes=%d collected=%d cow-clones=%d\n",
			st.Freezes, st.Collected, st.COWClones)
	case `\wal`:
		st, ok := db.WALStatus()
		if !ok {
			fmt.Println("no write-ahead log attached (run with -wal <dir>)")
			break
		}
		fmt.Println(st.String())
	case `\checkpoint`:
		lsn, err := db.Checkpoint()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("checkpoint taken through lsn=%d\n", lsn)
	case `\views`:
		for _, v := range db.Views() {
			fmt.Println(v)
		}
	case `\programs`:
		for _, p := range db.Programs() {
			fmt.Printf(".%s.%s  params: %s  required: %s\n",
				p.DB, p.Name, strings.Join(p.Params(), ","), strings.Join(p.Required(), ","))
		}
	case `\estats`:
		st := db.Stats()
		fmt.Printf("scanned=%d indexProbes=%d indexBuilds=%d attrEnums=%d\n",
			st.ElementsScanned, st.IndexProbes, st.IndexBuilds, st.AttrEnums)
	case `\save`:
		if len(fields) < 2 {
			fmt.Println("usage: \\save <path>")
			break
		}
		if err := db.Save(fields[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("saved", fields[1])
		}
	default:
		fmt.Println("unknown meta-command; try \\help")
	}
	return true
}

// metaTop prints the top statement digests: \top [calls|p99|rows|time] [k].
func metaTop(db *idl.DB, args []string) {
	by, k := "time", 10
	if len(args) > 0 {
		switch args[0] {
		case "calls", "p99", "rows", "time":
			by = args[0]
			args = args[1:]
		default:
			if _, err := fmt.Sscanf(args[0], "%d", &k); err != nil {
				fmt.Println("usage: \\top [calls|p99|rows|time] [k]")
				return
			}
			args = args[1:]
		}
	}
	if len(args) > 0 {
		if _, err := fmt.Sscanf(args[0], "%d", &k); err != nil || k < 1 {
			fmt.Println("usage: \\top [calls|p99|rows|time] [k]")
			return
		}
	}
	digests, err := db.TopStatements(k, by)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(digests) == 0 {
		fmt.Println("no statements digested yet")
		return
	}
	fmt.Printf("top %d statements by %s:\n", len(digests), by)
	for _, d := range digests {
		fmt.Printf("%s %s calls=%d err=%d rows=%d p99=%s total=%s %s\n",
			d.Fingerprint, d.Kind, d.Calls, d.Errors, d.Resources.RowsScanned,
			time.Duration(d.P99NS), time.Duration(d.TotalNS), d.Text)
	}
	if n := db.StatementsDropped(); n > 0 {
		fmt.Printf("(%d observations of new shapes dropped at the digest bound)\n", n)
	}
}

// metaStatement prints one digest in full, with captured exemplars.
func metaStatement(db *idl.DB, fp string) {
	d, exemplars, err := db.Statement(fp)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("statement %s kind=%s calls=%d err=%d degraded=%d\n", d.Fingerprint, d.Kind, d.Calls, d.Errors, d.Degraded)
	fmt.Printf("text: %s\n", d.Text)
	fmt.Printf("plan-cache: hit=%d stale=%d miss=%d cold=%d\n", d.PlanHit, d.PlanStale, d.PlanMiss, d.PlanCold)
	r := d.Resources
	fmt.Printf("resources: rows=%d tuples=%d fixpoint=%d index-builds=%d index-probes=%d fed-fetches=%d wal-bytes=%d\n",
		r.RowsScanned, r.TuplesEmitted, r.FixpointRounds, r.IndexBuilds, r.IndexProbes, r.FedFetches, r.WALBytes)
	fmt.Printf("latency: mean=%s p50=%s p99=%s window-n=%d rate=%.3g/s\n",
		time.Duration(d.MeanNS), time.Duration(d.P50NS), time.Duration(d.P99NS), d.WindowCount, d.RatePerSec)
	fmt.Printf("captures: %d (exemplars kept: %d)\n", d.Captures, len(exemplars))
	for i, ex := range exemplars {
		fmt.Printf("exemplar %d: trace=%s dur=%s events=%d\n", i+1, ex.TraceID, time.Duration(ex.DurationNS), len(ex.Events))
		if ex.Trace != nil {
			fmt.Println(ex.Trace.String())
		}
	}
}

// metaTrace drives the span tracer: on [capacity] / off / show.
func metaTrace(db *idl.DB, args []string) {
	mode := "show"
	if len(args) > 0 {
		mode = args[0]
	}
	switch mode {
	case "on":
		capacity := 16
		if len(args) > 1 {
			fmt.Sscanf(args[1], "%d", &capacity)
		}
		db.EnableTracing(capacity)
		fmt.Printf("tracing on (keeping last %d operations)\n", capacity)
	case "off":
		db.DisableTracing()
		fmt.Println("tracing off")
	case "show":
		t := db.Tracer()
		if t == nil {
			fmt.Println(`tracing is off; enable with \trace on`)
			return
		}
		spans := t.Recent()
		if len(spans) == 0 {
			fmt.Println("no traced operations yet")
			return
		}
		for _, s := range spans {
			fmt.Println(s.String())
		}
	default:
		fmt.Println("usage: \\trace on [capacity] | off | show")
	}
}
