#!/bin/sh
# Full CI gate: formatting, compile, vet, the whole test suite (chaos,
# concurrency and cancellation tests included) under the race detector
# with shuffled test order, a coverage floor on the engine, fuzz smoke
# on the parser and the parallel evaluator, a served-path smoke (idld
# on an ephemeral port: wire replay check, open-loop SLO gates,
# graceful-drain exit 0), then the benchmark pipeline:
#
#   1. regenerate the snapshot in short mode to BENCH_new.json;
#   2. validate it — malformed reports, unmeasured benchmarks,
#      tracing / flight-recorder overhead beyond the DESIGN.md §8–§9
#      bounds, a B13 sync-family parallel speedup below 1.5× at four
#      workers (DESIGN.md §10), a B14 plan-cache hit rate below 0.95,
#      a B14 repeated-query speedup below 1.15× (DESIGN.md §11; the
#      design target is 1.5×, the gate absorbs short-mode timer noise),
#      a B15 WAL read-path tax above 1.15× (queries never append, so
#      the bound is tight), a B15 group-commit amortization below
#      1.5× (DESIGN.md §13; ~8× measured), a B16 windowed-telemetry
#      tax above 1.03× (DESIGN.md §14: rolling histograms and SLO
#      trackers must cost ≤3% on a cheap query), a B17
#      statement-digest tax above 1.03× (DESIGN.md §15: fingerprinting
#      and digest accounting must cost ≤3% per query), a B18
#      during-commit read scaling below 2.5× (DESIGN.md §17: snapshot
#      readers must keep completing while a writer holds the commit
#      path; measured in the thousands, serial readers complete ~0),
#      or a B18 incremental-checkpoint ratio above 0.25 (a
#      single-relation update must rewrite at most a quarter of the
#      universe's checkpoint bytes; ~0.05 measured), or an allocation
#      ceiling broken (DESIGN.md §19: B1/B3/B8 may allocate a fixed
#      128 per evaluation plus 0.25 per scanned element, B4 at most
#      15 000 per materialisation, B13/query at most 400 at any
#      worker count — counts, so the ceilings sit close above the
#      measured 14–54, 13 100–13 300 and 33–169) fail the build;
#   3. compare it against the committed BENCH_report.json — any
#      benchmark more than 25% slower fails the build (the
#      bench-regression gate; a failed compare re-measures once so a
#      transient load spike cannot fail the build by itself);
#   4. promote BENCH_new.json to BENCH_report.json so a passing run
#      leaves the refreshed snapshot ready to commit.
#
# Run from the repository root: scripts/ci.sh
set -eux

test -z "$(gofmt -l .)"

go build ./...
go vet ./...
go test -race -shuffle=on ./...

# bench/ is a module of its own (BENCHMARK.json's program), so the root
# ./... above never descends into it: vet and test it here, or nothing
# proves the benchmark still builds against the engine it measures.
(cd bench && go vet ./... && go test ./...)

# Coverage floor on the engine package: the planner and plan-cache layer
# raised the floor from its 77.8% seed to 80.0% (81.3% measured when the
# planner landed); new evaluation layers must keep the tests that come
# with them.
go test -coverprofile=/tmp/core_cover.out ./internal/core
go tool cover -func=/tmp/core_cover.out | awk '
    /^total:/ {
        sub(/%/, "", $3)
        if ($3 + 0 < 80.0) {
            printf "internal/core coverage %.1f%% below 80.0%% floor\n", $3
            exit 1
        }
        printf "internal/core coverage %.1f%% (floor 80.0%%)\n", $3
    }'

# Crash-recovery smoke: the seeded crash-point grid drives the durable
# session through every WAL write and fsync index (with torn tails) and
# checks the recovered state against the prefix-consistency oracle.
# Short mode strides the grid; the full grid runs in `go test ./...`
# above.
go test -run '^TestCrashPointGrid$|^TestCheckpointRecovery$' -short .

# Fuzz smoke: a short randomized pass over the parser round-trip, the
# sequential-vs-parallel differential oracle, view maintenance by delta
# against a from-scratch materialization after every statement, and
# randomized crash-point recovery against the prefix-consistency
# oracle. Any corpus crasher found earlier re-runs here as a regression
# seed.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s ./internal/parser
go test -run '^$' -fuzz '^FuzzEvalQuery$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzViewMaintenance$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzRecovery$' -fuzztime 15s .

# Server smoke: capture a queries-only journal, serve the same demo
# universe from idld on an ephemeral port, byte-compare the journal's
# answers through the wire protocol (-check), then drive the pool
# open-loop for 5 s under SLO gates: minimum achieved QPS, a p99
# ceiling generous enough for a loaded CI host (measured p99 is ~2 ms),
# and zero errors. The daemon runs with -debug -mutex-profile so the
# load run doubles as a lock-contention capture: after the open-loop
# pass, /debug/pprof/mutex must serve a non-empty profile (the artifact
# that names the engine's contended locks if the lock-free read path
# regresses) and /debug/mvcc must report a live snapshot version chain.
# The SIGTERM at the end is itself a gate — the daemon must drain
# inflight requests, checkpoint, and exit 0.
go build -o /tmp/idld ./cmd/idld
go build -o /tmp/idlload ./cmd/idlload
rm -f /tmp/server_smoke.idlog /tmp/idld.addr
go run ./cmd/idl -demo -journal /tmp/server_smoke.idlog -script scripts/server_smoke.idl > /dev/null
/tmp/idld -demo -addr 127.0.0.1:0 -addr-file /tmp/idld.addr -debug -mutex-profile 5 &
IDLD_PID=$!
for i in $(seq 100); do test -s /tmp/idld.addr && break; sleep 0.1; done
IDLD_ADDR="http://$(cat /tmp/idld.addr)"
/tmp/idlload -addr "$IDLD_ADDR" -check /tmp/server_smoke.idlog
/tmp/idlload -addr "$IDLD_ADDR" -qps 200 -duration 5s -min-qps 150 -max-p99 250ms -max-error-rate 0 /tmp/server_smoke.idlog
curl -sf "$IDLD_ADDR/debug/pprof/mutex?debug=1" > /tmp/idld_mutex.pprof
test -s /tmp/idld_mutex.pprof
curl -sf "$IDLD_ADDR/debug/mvcc" | grep -q '"head_epoch"'
kill -TERM "$IDLD_PID"
wait "$IDLD_PID"

go run ./cmd/idlbench -short -out BENCH_new.json
go run ./cmd/idlbench -validate BENCH_new.json -max-trace-overhead 3.0 -max-flight-overhead 1.25 -min-parallel-speedup 1.5 -min-plan-cache-hit 0.95 -min-plan-speedup 1.15 -max-wal-overhead 1.15 -min-group-amortize 1.5 -max-telemetry-overhead 1.03 -max-insights-overhead 1.03 -min-read-scaling 2.5 -max-ckpt-ratio 0.25
# The regression gate, with one confirmation pass: sustained host
# contention can inflate a whole snapshot run, so a failed compare
# re-measures once and only fails when the regression reproduces. A
# real slowdown fails both runs; a noise spike on a loaded CI box
# almost never hits the same benchmark twice.
if ! go run ./cmd/idlbench -compare -max-regress 0.25 BENCH_report.json BENCH_new.json; then
    go run ./cmd/idlbench -short -out BENCH_new.json
    go run ./cmd/idlbench -compare -max-regress 0.25 BENCH_report.json BENCH_new.json
fi
mv BENCH_new.json BENCH_report.json
