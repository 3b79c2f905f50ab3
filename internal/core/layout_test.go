package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"idl/internal/object"
	"idl/internal/parser"
)

// TestSiteHintsUnderConcurrentWrites: readers evaluate cached plans —
// warming the attribute sites on their resolved trees — while a writer
// thaws chwab.r and moves a date tuple's stock attributes from slot to
// slot: one request deletes an attribute and puts it back with its
// value, so the tuple changes layout and the attribute its position,
// and its answers do not change. Every read must answer what a serial
// run does (run under -race).
func TestSiteHintsUnderConcurrentWrites(t *testing.T) {
	e := newStockEngine(t)
	queries := []string{
		"?.chwab.r(.date=D, .hp=P)",
		"?.chwab.r(.hp=P, .sun=Q), P < Q",
		"?.chwab.r(.date=3/3/85, .ibm=P)",
		"?.chwab.r(.date=D, .S=P), S != date, P > 150",
		"?.chwab.r(.date=D, .zz=P)",
	}
	want := make([]string, len(queries))
	for i, src := range queries {
		want[i] = q(t, e, src).String()
	}
	var writes []string
	for i := 0; i < 240; i++ {
		d := fixDates[i%len(fixDates)]
		s := fixStocks[(i/len(fixDates))%len(fixStocks)]
		writes = append(writes, fmt.Sprintf("?.chwab.r(.date=%s, .%s=P, -.%s, +.%s=P)", d, s, s, s))
	}

	done := make(chan struct{})
	var reads atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := (r + n) % len(queries)
				query, err := parser.ParseQuery(queries[i])
				if err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				ans, err := e.Query(query)
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
					failed.Store(true)
					return
				}
				if got := ans.String(); got != want[i] {
					t.Errorf("%s answered\n%s\nwant\n%s", queries[i], got, want[i])
					failed.Store(true)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	for _, w := range writes {
		// Each write waits for a read after the one before it, so reads
		// and writes interleave however the scheduler runs them.
		for last := reads.Load(); reads.Load() == last && !failed.Load(); {
			runtime.Gosched()
		}
		if res := exec(t, e, w); res.AttrsDeleted != 1 || res.AttrsCreated != 1 {
			t.Errorf("%s: deleted %d, created %d attributes", w, res.AttrsDeleted, res.AttrsCreated)
		}
	}
	close(done)
	wg.Wait()
	for i, src := range queries {
		if got := q(t, e, src).String(); got != want[i] {
			t.Errorf("after the writes, %s answered\n%s\nwant\n%s", src, got, want[i])
		}
	}
	// The writes did move the attributes: no row keeps its first order.
	chwab, _ := e.Base().Get("chwab")
	r, _ := chwab.(*object.Tuple).Get("r")
	r.(*object.Set).Each(func(el object.Object) bool {
		if attrs := el.(*object.Tuple).Attrs(); slices.Equal(attrs, []string{"date", "hp", "ibm", "sun"}) {
			t.Errorf("row %s kept its attribute order", el)
		}
		return true
	})
}
