// Command idld serves an IDL database over the HTTP/JSON wire protocol
// (internal/server): multi-tenant query/exec/prepare endpoints with
// admission control, per-request deadlines, server-side sessions and
// graceful drain.
//
// Usage:
//
//	idld [flags]
//
// The database bootstraps like cmd/idl: -demo preloads the paper's
// three stock databases, -script runs an IDL script before serving, and
// -wal makes the session durable (recovering whatever a previous run
// left in the directory). On SIGTERM or SIGINT the server drains
// gracefully: the admission gate closes (new requests get 503 +
// Connection: close), inflight requests run to completion, the WAL is
// checkpointed when one is attached, and the process exits 0.
//
// Flags:
//
//	-addr a             listen address (default 127.0.0.1:8089; use :0
//	                    for an ephemeral port)
//	-addr-file path     write the bound address to this file once
//	                    listening — how scripts find an ephemeral port
//	-demo               preload the paper's three stock databases
//	-script file.idl    run this script against the DB before serving
//	-wal dir            durable serving: write-ahead log directory
//	-durability m       with -wal: sync (default), group, or off
//	-best-effort        degrade queries when a federated member is down
//	-timeout d          per-attempt federated member timeout
//	-retries n          federated member retry attempts
//	-workers n          parallel evaluation workers
//	-max-inflight n     admitted-request bound; excess sheds with 429
//	-tenant-inflight n  per-tenant admitted-request bound
//	-request-timeout d  default per-request deadline
//	-max-timeout d      cap on client-requested X-Timeout-Ms deadlines
//	-session-idle d     expire sessions unused this long
//	-max-sessions n     session table bound
//	-default-tenant t   tenant for requests without X-Tenant
//	-slo-target d       statement SLO latency target (engine.query,
//	                    engine.exec and engine.call)
//	-drain-timeout d    how long SIGTERM waits for inflight requests
//	-debug              mount the /debug/ observability endpoints
//	-mutex-profile n    sample 1/n of mutex contention events so
//	                    /debug/pprof/mutex captures lock hot spots
//	                    (0 disables; pair with -debug)
//	-no-insights        do not accumulate per-statement query digests
//	-slow-query d       capture statements slower than d as exemplars
//
// Exit status: 0 on clean drain, 1 on serve or drain failure, 2 on
// usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"idl"
	"idl/internal/server"
	"idl/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run serves until the listener fails or a shutdown signal arrives.
// ready, when non-nil, receives the bound address once listening —
// the in-process hook the tests use instead of -addr-file.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("idld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8089", "listen address (use :0 for an ephemeral port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening")
		demo       = fs.Bool("demo", false, "preload the paper's three stock databases")
		script     = fs.String("script", "", "run this IDL script before serving")
		wal        = fs.String("wal", "", "write-ahead log directory for durable serving")
		durability = fs.String("durability", "sync", "with -wal: fsync policy — sync, group, or off")
		bestEffort = fs.Bool("best-effort", false, "degrade queries when a federated member is unreachable")
		timeout    = fs.Duration("timeout", idl.DefaultFederationConfig().Timeout, "per-attempt federated member timeout")
		retries    = fs.Int("retries", idl.DefaultFederationConfig().Retries, "federated member retry attempts")
		workers    = fs.Int("workers", 0, "parallel evaluation workers (0 or 1 = sequential)")

		maxInflight    = fs.Int("max-inflight", 64, "admitted-request bound; excess sheds with 429")
		tenantInflight = fs.Int("tenant-inflight", 0, "per-tenant admitted-request bound (0 = max-inflight/4)")
		reqTimeout     = fs.Duration("request-timeout", 5*time.Second, "default per-request deadline")
		maxTimeout     = fs.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
		sessionIdle    = fs.Duration("session-idle", 10*time.Minute, "expire sessions unused this long")
		maxSessions    = fs.Int("max-sessions", 1024, "session table bound")
		defaultTenant  = fs.String("default-tenant", "public", "tenant for requests without X-Tenant")
		sloTarget      = fs.Duration("slo-target", 100*time.Millisecond, "statement SLO latency target (engine.query, engine.exec, engine.call)")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for inflight requests")
		debug          = fs.Bool("debug", false, "mount the /debug/ observability endpoints")
		mutexProfile   = fs.Int("mutex-profile", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0 = off)")
		noInsights     = fs.Bool("no-insights", false, "do not accumulate per-statement query digests")
		slowQuery      = fs.Duration("slow-query", 0, "capture statements slower than this as exemplars (0 = relative rule only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: idld [flags]")
		fs.PrintDefaults()
		return 2
	}
	if *mutexProfile > 0 {
		// Sampled mutex contention: cheap enough to leave on in smoke
		// runs, and /debug/pprof/mutex then names the contended locks.
		runtime.SetMutexProfileFraction(*mutexProfile)
	}

	wcfg := workload.Default()
	wcfg.Demo, wcfg.BestEffort, wcfg.Workers = *demo, *bestEffort, *workers
	wcfg.Timeout, wcfg.Retries = *timeout, *retries
	db, _, err := workload.Open(wcfg, workload.Store{WAL: *wal, Durability: *durability})
	if err != nil {
		fmt.Fprintln(stderr, "idld:", err)
		return 1
	}
	if !*noInsights {
		db.EnableInsights(idl.InsightsConfig{SlowThreshold: *slowQuery, SlowFactor: 4})
	}
	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(stderr, "idld:", err)
			return 1
		}
		if _, err := db.Load(string(src)); err != nil {
			fmt.Fprintln(stderr, "idld: script:", err)
			return 1
		}
	}

	srv := server.New(db, server.Config{
		MaxInflight:    *maxInflight,
		TenantInflight: *tenantInflight,
		RequestTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		SessionIdle:    *sessionIdle,
		MaxSessions:    *maxSessions,
		DefaultTenant:  *defaultTenant,
		Debug:          *debug,
	})
	// The server turned metrics on; the statement SLOs are the facade's.
	for _, name := range []string{"engine.query", "engine.exec", "engine.call"} {
		if err := db.SetSLO(name, *sloTarget, 0); err != nil {
			fmt.Fprintln(stderr, "idld:", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "idld:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "idld:", err)
			return 1
		}
	}
	if ready != nil {
		ready <- bound
	}
	perTenant := "auto"
	if *tenantInflight > 0 {
		perTenant = strconv.Itoa(*tenantInflight)
	}
	fmt.Fprintf(stdout, "idld: serving on http://%s/ (max-inflight=%d, tenant-inflight %s, default tenant %q)\n",
		bound, *maxInflight, perTenant, *defaultTenant)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Periodic session expiry: a fraction of the idle window keeps the
	// sweep timely without a busy timer.
	sweepEvery := max(*sessionIdle/4, time.Second)
	sweeper := time.NewTicker(sweepEvery)
	defer sweeper.Stop()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	for {
		select {
		case <-sweeper.C:
			srv.SweepSessions(time.Now())
		case err := <-serveErr:
			fmt.Fprintln(stderr, "idld: serve:", err)
			return 1
		case <-sigCtx.Done():
			stop()
			fmt.Fprintln(stdout, "idld: draining...")
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := srv.Drain(drainCtx)
			cancel()
			if err != nil {
				fmt.Fprintln(stderr, "idld:", err)
				httpSrv.Close()
				return 1
			}
			// Inflight work is done and checkpointed; now close listeners
			// and any idle connections.
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			httpSrv.Shutdown(shutCtx)
			cancel()
			if err := db.Close(); err != nil {
				fmt.Fprintln(stderr, "idld: close wal:", err)
				return 1
			}
			fmt.Fprintln(stdout, "idld: drained, exiting")
			return 0
		}
	}
}
