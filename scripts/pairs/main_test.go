package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSummarize pins the arithmetic every accept rests on: medians and
// quartiles over the runs that reported, pairs won over the pairs whose
// two runs both reported, the bound check in the metric's direction,
// and the failed-run and failed-share counts beside them.
func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		name           string
		better         string
		parent, change []string // one run per entry: a value, or a line that is not a contract line
		want           summary
		failedRuns     [2]int
	}{
		{
			name: "odd run count", better: "higher",
			parent: []string{"100", "300", "200"}, change: []string{"210", "290", "190"},
			want: summary{parent: 200, q1: 150, q3: 250, change: 210, won: 1, pairs: 3},
		},
		{
			name: "even run count, lower is better", better: "lower",
			parent: []string{"10", "40", "20", "30"}, change: []string{"9", "41", "19", "35"},
			want: summary{parent: 25, q1: 17.5, q3: 32.5, change: 27, won: 2, pairs: 4},
		},
		{
			name: "failed placeholder lines", better: "higher",
			parent: []string{"100", "failed", "120"}, change: []string{"110", "130", "failed"},
			want:       summary{parent: 110, q1: 105, q3: 115, change: 120, won: 1, pairs: 1},
			failedRuns: [2]int{1, 1},
		},
		{
			name: "lower is better, median exactly at the bound", better: "lower",
			parent: []string{"100", "100"}, change: []string{"125", "125"},
			want: summary{parent: 100, q1: 100, q3: 100, change: 125, pairs: 2},
		},
		{
			name: "lower is better, one run past the bound, the median at it", better: "lower",
			parent: []string{"100", "100"}, change: []string{"126", "124"},
			want: summary{parent: 100, q1: 100, q3: 100, change: 125, pairs: 2},
		},
		{
			name: "lower is better, median past the bound", better: "lower",
			parent: []string{"100", "100"}, change: []string{"126", "126"},
			want: summary{parent: 100, q1: 100, q3: 100, change: 126, pairs: 2, worse: true},
		},
		{
			name: "higher is better, median exactly at the bound", better: "higher",
			parent: []string{"100"}, change: []string{"75"},
			want: summary{parent: 100, q1: 100, q3: 100, change: 75, pairs: 1},
		},
		{
			name: "higher is better, median past the bound", better: "higher",
			parent: []string{"100"}, change: []string{"74"},
			want: summary{parent: 100, q1: 100, q3: 100, change: 74, pairs: 1, worse: true},
		},
	} {
		dir := t.TempDir()
		parent := writeRuns(t, filepath.Join(dir, "w.parent"), c.parent)
		change := writeRuns(t, filepath.Join(dir, "w.change"), c.change)
		m := metric{Name: "m", Better: c.better, Bound: 0.25}
		if got := summarize(m, parent, change); got != c.want {
			t.Errorf("%s: summary %+v, want %+v", c.name, got, c.want)
		}
		if got := [2]int{failedRuns(parent), failedRuns(change)}; got != c.failedRuns {
			t.Errorf("%s: failed runs %v, want %v", c.name, got, c.failedRuns)
		}
	}
}

// TestFailedShare: the share of operations that failed is taken over
// the runs that reported; a failed run has no operations to count.
func TestFailedShare(t *testing.T) {
	dir := t.TempDir()
	runs := writeRuns(t, filepath.Join(dir, "w.change"), []string{"1", "failed", "1"})
	runs[0].Attempted, runs[0].Failed = 300, 3
	runs[2].Attempted, runs[2].Failed = 100, 1
	if got := failedShare(runs); got != 0.01 {
		t.Errorf("failed share %v, want 0.01", got)
	}
	if got := failedShare(runs[1:2]); got != 0 {
		t.Errorf("failed share of no reported run %v, want 0", got)
	}
}

// writeRuns writes one line per run — a contract line carrying metric m,
// or the entry itself when it is not a number — and reads them back.
func writeRuns(t *testing.T, path string, entries []string) []*run {
	t.Helper()
	var b strings.Builder
	for _, e := range entries {
		var v float64
		if _, err := fmt.Sscan(e, &v); err != nil {
			b.WriteString(e + "\n")
			continue
		}
		fmt.Fprintf(&b, `{"attempted":100,"failed":0,"metrics":{"m":{"value":%s}}}`+"\n", e)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}
