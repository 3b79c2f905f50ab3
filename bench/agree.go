package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Spec is BENCHMARK.json: the contract between the benchmark and whoever
// holds a later change to it.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric's unit, direction and — end to end —
// regression bound, as a share of the base value.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares result file b against result file a, metric by
// metric and workload by workload, under the bounds in the spec. A row is
// a BREACH when b is worse than a by more than the metric's bound, and
// unresolved — not ok — when in either run the median window lies further
// from the best one than the bound: that run was disturbed for most of its
// length and cannot tell a difference of that size from the disturbance.
// Every ratio is printed with its base.
func agreeFiles(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec Spec
	var a, b File
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n",
		aPath, a.Env.Commit, a.Env.Seed, bPath, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(stdout, "%-15s %-17s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "worse by", "bound", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		ra, rb := a.Timed[w.Name], b.Timed[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(stdout, "%-15s missing from a result file\n", w.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, mb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			worse := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ma.disturbance() > m.Bound || mb.disturbance() > m.Bound:
				verdict = fmt.Sprintf("unresolved (median window off the best by a %.1f%%, b %.1f%%)", 100*ma.disturbance(), 100*mb.disturbance())
				bad++
			case worse > m.Bound:
				verdict = "BREACH"
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-17s %14.4f %14.4f %8.3fx %+7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, ma.Value, mb.Value, mb.Value/ma.Value, 100*worse, 100*m.Bound, verdict)
		}
		// failed_share has no tolerance: any increase is a breach.
		verdict := "ok"
		if rb.FailedShare > ra.FailedShare {
			verdict = "BREACH"
			bad++
		}
		fmt.Fprintf(stdout, "%-15s %-17s %14.6f %14.6f %9s %8s %7s  %s (%d/%d vs %d/%d failed)\n",
			w.Name, "failed_share", ra.FailedShare, rb.FailedShare, "", "", "0%", verdict,
			ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows do not agree\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "the two runs agree on every metric of every workload")
	return 0
}
