// Command idlload drives a captured .idlog workload journal, in one of
// two modes:
//
// Load mode (default) replays the journal's statements open-loop at a
// target QPS against an idld server: requests fire on a fixed schedule
// regardless of completions, so a server falling behind shows up as
// latency and shed rather than a silently slowed generator. The report
// covers p50/p90/p99/p999/max latency, achieved QPS, and error/shed
// rates, and the -min-qps / -max-p99 / -max-error-rate flags turn the
// report into an SLO gate (exit 1 on violation) for CI.
//
// Check mode (-check) replays the journal once, in order, and
// byte-compares every outcome against what the original run recorded.
// With -addr it replays through the wire protocol (the
// server-equivalence check); without, it replays in process against the
// environment rebuilt from the journal header's metadata (the workload
// configuration cmd/idl stamps when -journal is combined with -demo), so
// a journal replays from the file alone. Chaos captures replay
// deterministically: the seeded fault injector reproduces the recorded
// fault schedule, down to the degraded reports' member error strings.
//
// Usage:
//
//	idlload -addr http://127.0.0.1:8089 [flags] journal.idlog
//	idlload -check [-addr url] [flags] journal.idlog
//
// Flags:
//
//	-addr url          server base URL (required in load mode)
//	-check             ordered replay + byte-comparison instead of load
//	-snapshot path     check mode without -addr: build the replay DB
//	                   from a snapshot instead of the journal metadata
//	                   (for journals captured against a hand-built
//	                   universe)
//	-recovered         check mode: accept records captured under
//	                   degradation that replay healthy, when the recorded
//	                   rows are a subset of the replayed answer
//	-perf              check mode: also report recorded vs replayed
//	                   latency distributions per statement kind
//	-qps n             target send rate (default 200)
//	-duration d        how long to send (default 5s)
//	-tenants a,b,c     cycle requests across these tenants
//	-timeout-ms n      per-request X-Timeout-Ms (0 = server default)
//	-include-exec      load mode: also fire the journal's update
//	                   statements (default: queries only, so a fixed-rate
//	                   run leaves the served database unchanged)
//	-min-qps n         gate: fail when achieved QPS is below n
//	-max-p99 d         gate: fail when p99 latency exceeds d
//	-max-error-rate f  gate: fail when errors/sent exceeds f (0 = any
//	                   error fails; negative = gate off)
//
// Exit status: 0 when the run (and any gates) pass, 1 on gate failure or
// divergence, 2 on usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"idl"
	"idl/internal/qlog"
	"idl/internal/server"
	"idl/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idlload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "server base URL, e.g. http://127.0.0.1:8089")
		check       = fs.Bool("check", false, "ordered replay + byte-comparison instead of open-loop load")
		snapshot    = fs.String("snapshot", "", "check without -addr: build the replay DB from this snapshot instead of the journal metadata")
		recovered   = fs.Bool("recovered", false, "check: accept degraded records that replay healthy with a superset answer")
		perf        = fs.Bool("perf", false, "check: report recorded vs replayed latency distributions")
		qps         = fs.Float64("qps", 200, "target send rate")
		duration    = fs.Duration("duration", 5*time.Second, "how long to send")
		tenants     = fs.String("tenants", "", "comma-separated tenants to cycle across")
		timeoutMs   = fs.Int("timeout-ms", 0, "per-request X-Timeout-Ms (0 = server default)")
		includeExec = fs.Bool("include-exec", false, "load mode: also fire the journal's update statements")
		minQPS      = fs.Float64("min-qps", 0, "gate: fail when achieved QPS is below this (0 = off)")
		maxP99      = fs.Duration("max-p99", 0, "gate: fail when p99 latency exceeds this (0 = off)")
		maxErrRate  = fs.Float64("max-error-rate", -1, "gate: fail when errors/sent exceeds this (negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || (*addr == "" && !*check) || (*addr != "" && *snapshot != "") {
		fmt.Fprintln(stderr, "usage: idlload -addr <url> [flags] <journal.idlog>")
		fmt.Fprintln(stderr, "       idlload -check [-addr <url> | -snapshot <path>] [flags] <journal.idlog>")
		fs.PrintDefaults()
		return 2
	}
	path := fs.Arg(0)
	hdr, recs, err := idl.ReadJournal(path)
	if err != nil {
		fmt.Fprintln(stderr, "idlload:", err)
		return 2
	}

	if *check {
		target, err := checkTarget(*addr, *snapshot, hdr)
		if err != nil {
			fmt.Fprintln(stderr, "idlload:", err)
			return 2
		}
		return runCheck(stdout, path, target, recs, workload.Options{Recovered: *recovered}, *perf)
	}
	return runLoad(stdout, stderr, *addr, recs, loadFlags{
		qps: *qps, duration: *duration, tenants: *tenants, timeoutMs: *timeoutMs,
		includeExec: *includeExec, minQPS: *minQPS, maxP99: *maxP99, maxErrRate: *maxErrRate,
	})
}

// checkTarget picks what -check replays against: the server at addr,
// or an in-process DB rebuilt from the snapshot when given, else from
// the workload configuration in the journal header (an empty header
// replays onto an empty DB — the journal's own rules and updates still
// apply).
func checkTarget(addr, snapshot string, hdr *idl.JournalHeader) (workload.Target, error) {
	if addr != "" {
		return workload.Wire(server.NewClient(addr)), nil
	}
	var cfg workload.Config
	if snapshot == "" {
		var err error
		if cfg, err = workload.FromMeta(hdr.Meta); err != nil {
			return nil, err
		}
	}
	db, _, err := workload.Open(cfg, workload.Store{Snapshot: snapshot})
	if err != nil {
		return nil, err
	}
	return workload.Embedded(db), nil
}

// runCheck replays the journal in order against target and diffs every
// outcome against the recorded one.
func runCheck(stdout io.Writer, path string, target workload.Target, recs []qlog.Record, opts workload.Options, perf bool) int {
	rep := workload.Replay(context.Background(), target, recs, opts)
	fmt.Fprintf(stdout, "%s: %s\n", path, rep)
	for _, m := range rep.Mismatches {
		fmt.Fprintf(stdout, "  %s\n", m)
	}
	if perf {
		printLatencies(stdout, rep)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

func printLatencies(w io.Writer, rep *workload.Report) {
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintln(w, "latency (recorded vs replayed):")
	for _, kind := range append(kinds, "") {
		recorded, replayed := rep.Latencies(kind)
		if recorded.Count == 0 {
			continue
		}
		label := kind
		if label == "" {
			label = "all"
		}
		fmt.Fprintf(w, "  %-8s recorded %s\n", label, recorded)
		fmt.Fprintf(w, "  %-8s replayed %s\n", "", replayed)
	}
}

type loadFlags struct {
	qps         float64
	duration    time.Duration
	tenants     string
	timeoutMs   int
	includeExec bool
	minQPS      float64
	maxP99      time.Duration
	maxErrRate  float64
}

// runLoad fires the journal's statements open-loop and applies the SLO
// gates to the resulting report.
func runLoad(stdout, stderr io.Writer, addr string, recs []qlog.Record, f loadFlags) int {
	cfg := server.LoadConfig{QPS: f.qps, Duration: f.duration, TimeoutMs: f.timeoutMs, Execs: map[int]bool{}}
	for _, rec := range recs {
		switch rec.Kind {
		case qlog.KindQuery:
			cfg.Statements = append(cfg.Statements, rec.Text)
		case qlog.KindExec, qlog.KindCall:
			if f.includeExec {
				cfg.Execs[len(cfg.Statements)] = true
				cfg.Statements = append(cfg.Statements, rec.Text)
			}
		}
	}
	if len(cfg.Statements) == 0 {
		fmt.Fprintln(stderr, "idlload: journal has no replayable statements for load mode")
		return 2
	}
	if f.tenants != "" {
		cfg.Tenants = strings.Split(f.tenants, ",")
	}
	rep, err := server.RunLoad(context.Background(), addr, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "idlload:", err)
		return 2
	}
	printReport(stdout, rep, len(cfg.Statements))

	failed := false
	gate := func(ok bool, format string, a ...any) {
		if !ok {
			failed = true
			fmt.Fprintf(stdout, "GATE FAIL: "+format+"\n", a...)
		}
	}
	if f.minQPS > 0 {
		gate(rep.AchievedQPS() >= f.minQPS, "achieved %.1f qps < min %.1f", rep.AchievedQPS(), f.minQPS)
	}
	if f.maxP99 > 0 {
		gate(rep.P99 <= f.maxP99, "p99 %s > max %s", rep.P99, f.maxP99)
	}
	if f.maxErrRate >= 0 {
		gate(rep.ErrorRate() <= f.maxErrRate, "error rate %.4f > max %.4f", rep.ErrorRate(), f.maxErrRate)
	}
	if failed {
		return 1
	}
	if f.minQPS > 0 || f.maxP99 > 0 || f.maxErrRate >= 0 {
		fmt.Fprintln(stdout, "GATES PASS")
	}
	return 0
}

func printReport(w io.Writer, rep *server.LoadReport, pool int) {
	fmt.Fprintf(w, "sent=%d ok=%d shed=%d errors=%d (pool of %d statements, wall %s)\n",
		rep.Sent, rep.OK, rep.Shed, rep.Errors, pool, rep.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "achieved %.1f qps, shed rate %.4f, error rate %.4f\n",
		rep.AchievedQPS(), rep.ShedRate(), rep.ErrorRate())
	fmt.Fprintf(w, "latency p50=%s p90=%s p99=%s p999=%s max=%s\n",
		rep.P50, rep.P90, rep.P99, rep.P999, rep.Max)
	if len(rep.ByStatus) > 0 {
		var codes []int
		for c := range rep.ByStatus {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		var parts []string
		for _, c := range codes {
			label := fmt.Sprint(c)
			if c == 0 {
				label = "transport"
			}
			parts = append(parts, fmt.Sprintf("%s=%d", label, rep.ByStatus[c]))
		}
		fmt.Fprintf(w, "by status: %s\n", strings.Join(parts, " "))
	}
}
