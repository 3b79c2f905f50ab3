// Command pairs summarises alternating parent/change runs of the
// repository's benchmark (BENCHMARK.json): for every workload and
// end-to-end metric, the parent's median and interquartile range, the
// change's median, how many pairs the change won, and whether the
// change's median stays inside the metric's regression bound. It is
// scripts/pairs.sh's arithmetic:
//
//	go run ./scripts/pairs BENCHMARK.json             # list the workloads
//	go run ./scripts/pairs BENCHMARK.json DIR W...    # summarise the runs
//
// DIR holds W.parent and W.change for each workload W: one line per run,
// the contract line bench/run.sh prints last or, for a run that failed
// or reported nothing, any other line; the i-th line of each file forms
// pair i. Medians and quartiles are over the runs that reported, pairs
// won over the pairs whose two runs did. It exits 1 when a median is
// worse than the parent's beyond its bound, the failed share rose or
// more of the change's runs failed. W.parent.trace and W.change.trace,
// when present, hold one traced run per side; their per-layer deltas
// (layers below) are printed after the table, for attribution only.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// layers are the per-layer metrics the traced runs are compared on: the
// parse, plan, evaluation and facade lines of a statement's budget, the
// counts behind evaluation (allocations, rows scanned) and the write
// path's rungs (view refresh time, copy-on-write clones and freezes per
// write).
var layers = []string{
	"parser.parse_us", "core.plan_hit_ratio", "core.plan_miss_us", "core.eval_us", "idl.facade_self_us",
	"core.allocs_per_op", "core.rows_scanned_per_op",
	"core.refresh_us", "core.cow_clones_per_write", "core.freezes_per_write",
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: which way is better and how much
// worse the change's median may be, as a share of the parent's.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one contract line.
type run struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pairs BENCHMARK.json [DIR WORKLOAD...]")
		os.Exit(2)
	}
	var sp spec
	if err := readJSON(os.Args[1], &sp); err != nil {
		fatal(err)
	}
	if len(os.Args) == 2 {
		for _, w := range sp.Workloads {
			fmt.Println(w.Name)
		}
		return
	}
	if len(os.Args) < 4 {
		fmt.Fprintln(os.Stderr, "usage: pairs BENCHMARK.json [DIR WORKLOAD...]")
		os.Exit(2)
	}
	dir, ok := os.Args[2], true
	fmt.Printf("%-15s %-17s %12s %25s %12s %8s %6s  %s\n", "workload", "metric", "parent med", "parent IQR", "change med", "Δ", "won", "bound")
	for _, w := range os.Args[3:] {
		parent, err := readRuns(filepath.Join(dir, w+".parent"))
		if err != nil {
			fatal(err)
		}
		change, err := readRuns(filepath.Join(dir, w+".change"))
		if err != nil {
			fatal(err)
		}
		for _, m := range sp.EndToEnd {
			s := summarize(m, parent, change)
			verdict := "ok"
			if s.worse {
				verdict, ok = "WORSE", false
			}
			fmt.Printf("%-15s %-17s %12s %12s–%-12s %12s %+7.1f%% %3d/%-2d  %.2f %s\n",
				w, m.Name, num(s.parent), num(s.q1), num(s.q3), num(s.change), 100*(s.change-s.parent)/s.parent, s.won, s.pairs, m.Bound, verdict)
		}
		ps, cs := failedShare(parent), failedShare(change)
		verdict := "ok"
		if cs > ps {
			verdict, ok = "ROSE", false
		}
		fmt.Printf("%-15s %-17s %12.4g %25s %12.4g %8s %6s  %s\n", w, "failed_share", ps, "", cs, "", "", verdict)
		pf, cf := failedRuns(parent), failedRuns(change)
		verdict = "ok"
		if cf > pf {
			verdict, ok = "ROSE", false
		}
		fmt.Printf("%-15s %-17s %12d %25s %12d %8s %6s  %s\n", w, "failed_runs", pf, "", cf, "", "", verdict)
	}
	for _, w := range os.Args[3:] {
		printLayers(dir, w)
	}
	if !ok {
		os.Exit(1)
	}
}

// summary is one metric over a workload's runs: the parent's median and
// quartiles, the change's median, the pairs the change won of those
// whose two runs both reported, and whether the change's median is
// worse than the parent's by more than the bound.
type summary struct {
	parent, q1, q3, change float64
	won, pairs             int
	worse                  bool
}

func summarize(m metric, parent, change []*run) summary {
	p, c := values(parent, m.Name), values(change, m.Name)
	s := summary{parent: quantile(p, 0.5), q1: quantile(p, 0.25), q3: quantile(p, 0.75), change: quantile(c, 0.5)}
	for i := range min(len(parent), len(change)) {
		if parent[i] != nil && change[i] != nil {
			s.pairs++
			if better(m.Better, change[i].Metrics[m.Name].Value, parent[i].Metrics[m.Name].Value) {
				s.won++
			}
		}
	}
	worse := (s.change - s.parent) / s.parent
	if m.Better == "higher" {
		worse = -worse
	}
	s.worse = worse > m.Bound
	return s
}

// printLayers prints, for one workload's traced runs, each layer's
// parent and change value and their difference. A workload without
// traced runs prints nothing; a traced run that failed prints a dash.
func printLayers(dir, w string) {
	var sides [2]*run
	for i, side := range []string{"parent", "change"} {
		runs, err := readRuns(filepath.Join(dir, w+"."+side+".trace"))
		if os.IsNotExist(err) {
			return
		}
		if err == nil {
			sides[i] = runs[0]
		}
	}
	fmt.Printf("\n%-15s %-25s %12s %12s %8s   (one --trace 1 run per side)\n", w, "layer", "parent", "change", "Δ")
	for _, m := range layers {
		if sides[0] == nil || sides[1] == nil {
			fmt.Printf("%-15s %-25s %12s %12s %8s\n", w, m, "-", "-", "")
			continue
		}
		p, c := sides[0].Metrics[m].Value, sides[1].Metrics[m].Value
		delta := ""
		if p != 0 {
			delta = fmt.Sprintf("%+7.1f%%", 100*(c-p)/p)
		}
		fmt.Printf("%-15s %-25s %12s %12s %8s\n", w, m, num(p), num(c), delta)
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// readRuns reads one line per run; a run whose line is not a contract
// line failed and is nil.
func readRuns(path string) ([]*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []*run
	reported := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		r := new(run)
		if json.Unmarshal(sc.Bytes(), r) != nil || r.Metrics == nil {
			r = nil
		} else {
			reported++
		}
		runs = append(runs, r)
	}
	if reported == 0 {
		return nil, fmt.Errorf("%s: no run reported", path)
	}
	return runs, sc.Err()
}

// values lists a metric over the runs that reported.
func values(runs []*run, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r != nil {
			out = append(out, r.Metrics[metric].Value)
		}
	}
	return out
}

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// num prints a metric with the digits its magnitude warrants.
func num(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

func failedShare(runs []*run) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r == nil {
			continue
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func failedRuns(runs []*run) int {
	n := 0
	for _, r := range runs {
		if r == nil {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pairs:", err)
	os.Exit(1)
}
