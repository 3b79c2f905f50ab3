// Command bench is the repository's end-to-end benchmark: four workloads,
// each a closed loop of clients against the program through its public
// surface, reporting what a caller sees (throughput, p50, p99, set-up
// time, failures) and — in a separate traced run — what each layer spends,
// measured from outside. README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root names the
// command, the metrics' directions and their regression bounds.
//
// Usage (from the repository root, through the wrapper that builds first):
//
//	bash bench/run.sh                                   # everything, into bench/results/latest.json
//	bash bench/run.sh -workload served.scan -trace 0    # one timed run
//	bash bench/run.sh -workload served.scan -trace 1    # one traced run
//	bash bench/run.sh -agree a.json b.json              # compare two result files
//
// Flags:
//
//	-workload w   all (default) or one of embedded.point, served.point,
//	              served.scan, served.mixed
//	-trace n      0 = timed windows only, 1 = traced ladder only,
//	              2 = both (default)
//	-seed n       generator seed (default 1)
//	-seconds s    measured time of the timed run, split into -windows
//	-windows n    windows per timed run (default 10)
//	-clients n    closed-loop clients (default 2; never more than nproc)
//	-out file     write the full result record (default
//	              bench/results/latest.json when running everything)
//	-dir d        where WAL directories and trace.jsonl go
//	-spec file    BENCHMARK.json, for -agree
//	-agree        compare the two result files given as arguments
//
// The last line printed for each run is one JSON object: correct,
// attempted, failed, metrics. Exit status: 0 on success, 1 when a run
// failed, an operation failed or -agree found a breach, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Env records where and how a result file was produced.
type Env struct {
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GOGC        int            `json:"gogc"`
	Seed        uint64         `json:"seed"`
	Clients     int            `json:"clients"`
	LoadModel   string         `json:"load_model"`
	Windows     int            `json:"windows"`
	WindowS     float64        `json:"window_s"`
	SetupReps   int            `json:"setup_reps"`
	Datasets    map[string]int `json:"dataset_facts_per_layout"`
	Pools       map[string]int `json:"pool_sizes"`
	PlanCache   int            `json:"plan_cache_size"`
	Durability  string         `json:"wal_durability"`
	LogRecords  int            `json:"wal_log_records"`
	StartedAt   string         `json:"started_at"`
	TraceBudget float64        `json:"trace_walk_s"`
}

// File is the full record of one invocation; -agree compares two.
type File struct {
	Env    Env                `json:"env"`
	Timed  map[string]*Result `json:"timed"`
	Traced map[string]*Result `json:"traced"`
}

func environment(cfg Config) Env {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	return Env{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Seed:       cfg.Seed,
		Clients:    cfg.Clients,
		LoadModel:  "closed loop: each client sends its next statement when the last one is answered",
		Windows:    cfg.Windows,
		WindowS:    cfg.Window.Seconds(),
		SetupReps:  cfg.SetupReps,
		Datasets:   map[string]int{"D_large": DLarge.Stocks * DLarge.Days, "D_small": DSmall.Stocks * DSmall.Days},
		Pools: map[string]int{
			"embedded.point": embeddedPointPool, "served.point": servedPointPool,
			"served.scan": scanPoolSize, "served.mixed.private_cells_per_client": mixedPrivateStocks * DSmall.Days,
		},
		PlanCache:   planCacheSize,
		Durability:  walOptions.Durability.String(),
		LogRecords:  cfg.LogRecords,
		StartedAt:   time.Now().UTC().Format(time.RFC3339),
		TraceBudget: cfg.TraceFor.Seconds(),
	}
}

// commit asks git for the checkout's revision; the driver's checkouts
// are not repositories, and then it is "unknown".
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "all, or one workload's name")
		trace    = fs.Int("trace", 2, "0 = timed windows, 1 = traced ladder, 2 = both")
		seconds  = fs.Float64("seconds", cfg.Window.Seconds()*float64(cfg.Windows), "measured time of the timed run")
		out      = fs.String("out", "", "write the full result record to this file")
		spec     = fs.String("spec", "BENCHMARK.json", "the benchmark's contract, read by -agree")
		agree    = fs.Bool("agree", false, "compare two result files: -agree a.json b.json")
	)
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	fs.IntVar(&cfg.Windows, "windows", cfg.Windows, "windows per timed run")
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "closed-loop clients")
	fs.StringVar(&cfg.Dir, "dir", cfg.Dir, "directory for WAL scratch, trace.jsonl and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -agree a.json b.json")
			return 2
		}
		return agreeFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 2 || cfg.Windows < 1 || *seconds <= 0 || cfg.Clients < 1 {
		fmt.Fprintln(stderr, "usage: bench [-workload w] [-trace 0|1|2] [-seed n] [-seconds s] [-windows n] [-clients n] [-out file]")
		return 2
	}
	if cfg.Clients > runtime.NumCPU() {
		// With more clients than cores the clients queue for a CPU, and
		// the latency measured is the scheduler's.
		fmt.Fprintf(stderr, "bench: %d clients on %d CPUs: refusing to measure scheduler queueing\n", cfg.Clients, runtime.NumCPU())
		return 2
	}
	cfg.Window = time.Duration(*seconds / float64(cfg.Windows) * float64(time.Second))
	// A traced run's three phases — the walk and the one- and two-client
	// reference runs — together take the same time as a timed run.
	cfg.TraceFor = time.Duration(*seconds * 0.6 * float64(time.Second))

	selected := workloads
	if *workload != "all" {
		w, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []Workload{*w}
	} else if *out == "" {
		*out = filepath.Join(cfg.Dir, "latest.json")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	file := File{Env: environment(cfg), Timed: map[string]*Result{}, Traced: map[string]*Result{}}
	ctx := context.Background()
	status := 0
	for i := range selected {
		w := &selected[i]
		type phase struct {
			run  func(context.Context, Config) (*Result, error)
			into map[string]*Result
		}
		var phases []phase
		if *trace != 1 {
			phases = append(phases, phase{w.measure, file.Timed})
		}
		if *trace != 0 {
			phases = append(phases, phase{w.trace, file.Traced})
		}
		for _, ph := range phases {
			res, err := ph.run(ctx, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			ph.into[w.Name] = res
			res.print(stdout)
			if res.Failed > 0 {
				status = 1
			}
			fmt.Fprintln(stdout, res.contractLine())
		}
	}
	if *out != "" {
		if err := writeJSON(*out, &file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// contractLine renders a result the way the driver reads it: one JSON
// object with exactly correct, attempted, failed and metrics.
func (r *Result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	ms, _ := r.metrics()
	for name, m := range ms {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or an infinity can fail to marshal; neither is a result.
		panic(err)
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
