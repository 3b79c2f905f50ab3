#!/bin/sh
# Full CI gate: formatting, compile, vet, the whole test suite (chaos,
# concurrency and cancellation tests included) under the race detector
# with shuffled test order, every Go benchmark run once (so a benchmark
# an evaluator change breaks fails the build; idlbench times only its
# own arms), a coverage floor on the engine, fuzz smoke
# on the parser and the parallel evaluator, a served-path smoke (idld
# on an ephemeral port: in-process and wire replay checks that must
# agree, open-loop SLO gates,
# graceful-drain exit 0), then the benchmark pipeline:
#
#   1. regenerate the snapshot in short mode to BENCH_new.json;
#   2. validate it. The gates are constants in cmd/idlbench, not flags.
#      Count gates, which repeat run to run: every benchmark measured
#      once; the overhead matrix (the E5 query through idl.DB.Query with
#      one observer per arm) within its allocs/op ceilings over the
#      baseline — flightrec +8, metrics +0, traced +30, wal +0,
#      digests +1, capture +6 (DESIGN.md §8–§9, §13–§15); a B14
#      plan-cache hit rate of at least 0.95 and one resident plan for
#      its 24 literal variants (DESIGN.md §11); B8's index candidates
#      per op, 60 on the one-key baseline and at most 2 on two keys; no
#      index built per op by any read-only family (B1–B3, B8, B13/query,
#      B14, B18/readers), since an index lives on its set (DESIGN.md
#      §17); at least 200 reads completed by four facade readers while
#      B18's commits are in flight (DESIGN.md §17); a B18 incremental-checkpoint ratio
#      of at most 0.25; and the evaluator's allocation ceilings
#      (DESIGN.md §19: B1/B3/B8 128 per evaluation plus 0.25 per scanned
#      element, B4 6 000 per materialisation (§22), B13/query 400 at any
#      worker count). Time floors, which sleeps and fsync bound rather
#      than CPU: a B13 sync-family speedup of at least 1.5× at four
#      workers (DESIGN.md §10) and a B15 group-commit amortization of at
#      least 1.5× (DESIGN.md §13). Overhead ratios, including the ≤3%
#      design targets, are reported, not gated;
#   3. compare it against the committed BENCH_report.json — any
#      benchmark allocating more than 20% more per op fails the build
#      (the bench-regression gate; allocation counts repeat run to run,
#      so one measurement decides; ns/op deltas are printed, not gated;
#      reports of different schemas fail with one line asking for a
#      re-baseline);
#   4. promote BENCH_new.json to BENCH_report.json so a passing run
#      leaves the refreshed snapshot ready to commit.
#
# Run from the repository root: scripts/ci.sh
set -eux

# Build outputs, coverage profiles and the server smoke's files live in
# one scratch directory, removed on exit.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

test -z "$(gofmt -l .)"

go build ./...
go vet ./...
go test -race -shuffle=on ./...
go test -run '^$' -bench . -benchtime 1x ./...

# bench/ is a module of its own (BENCHMARK.json's program), so the root
# ./... above never descends into it: vet and test it here, or nothing
# proves the benchmark still builds against the engine it measures.
(cd bench && go vet ./... && go test ./...)

# Coverage floor on the engine package: the planner and plan-cache layer
# raised the floor from its 77.8% seed to 80.0% (81.3% measured when the
# planner landed); new evaluation layers must keep the tests that come
# with them.
go test -coverprofile="$SCRATCH/core_cover.out" ./internal/core
go tool cover -func="$SCRATCH/core_cover.out" | awk '
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
# lexer's token spans against the input they tile, the shape table
# against a fresh parse of the same statement with other literals, the
# sequential-vs-parallel differential oracle, view maintenance by delta
# against a from-scratch materialization after every statement, and
# randomized crash-point recovery against the prefix-consistency
# oracle, the wire codec against encoding/json and the former
# request decoder, and the canonical answer order against a stable sort
# by compareRows. Any corpus crasher found earlier re-runs here as a regression
# seed.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s ./internal/parser
go test -run '^$' -fuzz '^FuzzLex$' -fuzztime 10s ./internal/parser
go test -run '^$' -fuzz '^FuzzShape$' -fuzztime 15s ./internal/parser
go test -run '^$' -fuzz '^FuzzEvalQuery$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzViewMaintenance$' -fuzztime 15s ./internal/core
go test -run '^$' -fuzz '^FuzzRecovery$' -fuzztime 15s .
go test -run '^$' -fuzz '^FuzzWireCodec$' -fuzztime 10s ./internal/server
go test -run '^$' -fuzz '^FuzzCanonicalOrder$' -fuzztime 10s ./internal/core

# Server smoke: capture a queries-only journal, replay it in process
# (-check without -addr), serve the same demo universe from idld on an
# ephemeral port, byte-compare the journal's answers through the wire
# protocol (-check -addr) — the two replays must print the same report
# — then drive the pool
# open-loop for 5 s under SLO gates: minimum achieved QPS, a p99
# ceiling generous enough for a loaded CI host (measured p99 is ~2 ms),
# and zero errors. The daemon runs with -debug -mutex-profile so the
# load run doubles as a lock-contention capture: after the open-loop
# pass, /debug/pprof/mutex must serve a non-empty profile (the artifact
# that names the engine's contended locks if the lock-free read path
# regresses) and /debug/mvcc must report a live snapshot version chain.
# /debug/health must show the one statement clock: the served queries
# counted under the facade's engine.query op, and no server.* op, since
# the server times no statement of its own. The SIGTERM at the end is itself a gate — the daemon must drain
# inflight requests, checkpoint, and exit 0.
go build -o "$SCRATCH/idld" ./cmd/idld
go build -o "$SCRATCH/idlload" ./cmd/idlload
go run ./cmd/idl -demo -journal "$SCRATCH/server_smoke.idlog" -script scripts/server_smoke.idl > /dev/null
"$SCRATCH/idld" -demo -addr 127.0.0.1:0 -addr-file "$SCRATCH/idld.addr" -debug -mutex-profile 5 &
IDLD_PID=$!
for i in $(seq 100); do test -s "$SCRATCH/idld.addr" && break; sleep 0.1; done
IDLD_ADDR="http://$(cat "$SCRATCH/idld.addr")"
"$SCRATCH/idlload" -check "$SCRATCH/server_smoke.idlog" > "$SCRATCH/check_local.txt" || { cat "$SCRATCH/check_local.txt"; exit 1; }
"$SCRATCH/idlload" -addr "$IDLD_ADDR" -check "$SCRATCH/server_smoke.idlog" > "$SCRATCH/check_wire.txt" || { cat "$SCRATCH/check_wire.txt"; exit 1; }
cat "$SCRATCH/check_local.txt"
cmp "$SCRATCH/check_local.txt" "$SCRATCH/check_wire.txt"
"$SCRATCH/idlload" -addr "$IDLD_ADDR" -qps 200 -duration 5s -min-qps 150 -max-p99 250ms -max-error-rate 0 "$SCRATCH/server_smoke.idlog"
curl -sf "$IDLD_ADDR/debug/pprof/mutex?debug=1" > "$SCRATCH/idld_mutex.pprof"
test -s "$SCRATCH/idld_mutex.pprof"
curl -sf "$IDLD_ADDR/debug/mvcc" | grep -q '"head_epoch"'
curl -sf "$IDLD_ADDR/debug/health" > "$SCRATCH/idld_health.json"
grep -A2 '"name": "engine.query"' "$SCRATCH/idld_health.json" | grep -Eq '"count": [1-9]'
if grep -q '"name": "server\.' "$SCRATCH/idld_health.json"; then
	echo "ci: /debug/health reports a server op:"; cat "$SCRATCH/idld_health.json"; exit 1
fi
kill -TERM "$IDLD_PID"
wait "$IDLD_PID"

go build -o "$SCRATCH/idlbench" ./cmd/idlbench
"$SCRATCH/idlbench" -short -out BENCH_new.json
"$SCRATCH/idlbench" -validate BENCH_new.json
"$SCRATCH/idlbench" -compare BENCH_report.json BENCH_new.json
mv BENCH_new.json BENCH_report.json
