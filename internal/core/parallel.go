package core

import (
	"context"
	"sync"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
)

// Parallel evaluation (DESIGN.md §10). With Options.Workers > 1 the
// engine spreads work across goroutines in two places, both constructed
// so every observable result is byte-identical to sequential evaluation:
//
//   - Partitioned scans: when the first conjunct an operation schedules
//     resolves (under the empty substitution) to a full scan of one set,
//     that set's elements are split into contiguous chunks, one worker
//     per chunk, each running the complete evaluation restricted to its
//     chunk. Concatenating the per-chunk results in chunk order
//     reproduces the sequential enumeration order exactly, so the shared
//     ordered dedup sees the same row sequence it would have seen.
//
// A view refresh runs each rule body through the same partitioned scan;
// its rows are applied in rule order and row order (maintain.go), so the
// derived overlay is the same at every worker count too.
//
// Workers share each set's memo of indexes (read-locked on hits, one
// build between them on a miss) and the effective universe they evaluate, which nothing mutates while
// they run: a read's pinned MVCC version, or a view refresh's merged
// universe under e.mu. The options and metrics come with that view, so
// the evaluation matches what the version captured. Per-conjunct analyze
// probes are not parallel-safe, so traced/EXPLAIN ANALYZE queries always
// evaluate sequentially.

// minPartition is the smallest scan worth splitting: below this the
// goroutine fan-out costs more than the scan.
const minPartition = 16

// partition restricts the first enumeration of one specific set to a
// contiguous chunk of its elements. Later enumerations of the same set
// during the same evaluation (self-joins, negations over the scanned
// relation) see the full set, exactly as the sequential evaluator does.
type partition struct {
	set   *object.Set
	elems []object.Object
	used  bool
}

// scanTarget statically resolves the set that the first scheduled
// conjunct of x will fully scan under env (the read's literals bound,
// nothing else), by the evaluator's own rules: the scheduler's pick
// (pickConjunct, with the cost ranks an carries for its body) and the
// index rule (indexKeys). It returns nil when the first conjunct is not a
// plain constant-path scan — a negation, a constraint, a variable
// database or relation name, or a set expression the index would answer
// (partitioning an index probe would change the candidate enumeration
// order).
func scanTarget(x ast.Expr, o object.Object, an *bodyAnalysis, env *Env, opts Options) *object.Set {
	switch expr := x.(type) {
	case *ast.TupleExpr:
		if len(expr.Conjuncts) == 0 {
			return nil
		}
		// A single conjunct is not scheduled (and its list has no ID).
		pick := 0
		if expr.ID != 0 {
			var ranks []float64
			if expr == an.body {
				ranks = an.ranks
			}
			var buf [16]bool // the first pick's empty mask, kept off the heap
			used := append(buf[:0], make([]bool, len(expr.Conjuncts))...)
			pick = pickConjunct(used, an.sc.tuples[expr.ID].consumed, ranks, env, opts.NoSchedule)
		}
		return scanTarget(expr.Conjuncts[pick], o, an, env, opts)

	case *ast.AttrExpr:
		if expr.Sign != ast.SignNone {
			return nil
		}
		name, ok := ast.ConstName(expr.Name)
		if !ok {
			return nil
		}
		tup, ok := o.(*object.Tuple)
		if !ok {
			return nil
		}
		val, ok := tup.Get(name)
		if !ok {
			return nil
		}
		return scanTarget(expr.Expr, val, an, env, opts)

	case *ast.SetExpr:
		if expr.Sign != ast.SignNone {
			return nil
		}
		set, ok := o.(*object.Set)
		if !ok {
			return nil
		}
		var keys [4]object.AttrEq
		if opts.UseIndex && len(indexKeys(keys[:0], expr, set, env)) > 0 {
			// The index path would answer this scan, so the sequential
			// evaluator never enumerates the full set; leave it alone.
			return nil
		}
		return set

	default:
		return nil
	}
}

// splitChunks cuts elems into at most n contiguous, non-empty chunks of
// near-equal size.
func splitChunks(elems []object.Object, n int) [][]object.Object {
	if n > len(elems) {
		n = len(elems)
	}
	chunks := make([][]object.Object, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(elems) / n
		hi := (i + 1) * len(elems) / n
		if lo < hi {
			chunks = append(chunks, elems[lo:hi])
		}
	}
	return chunks
}

// collectPartitioned is collect with the body's first scanned set
// partitioned across opts.Workers workers: each worker collects its
// chunk's output rows, and the chunks merge in chunk order — their
// concatenation is the exact sequential enumeration order, and dropping
// a worker's own duplicates early cannot change which occurrence of a
// row comes first. ok is false when the body has no partitionable scan
// or the target set is too small to split; the caller then evaluates
// sequentially. On error, the reported error is the one the earliest
// chunk raised — the same error sequential evaluation would have hit
// first, since workers fail at the first failing element of their own
// chunk.
func (e *Engine) collectPartitioned(ctx context.Context, an *bodyAnalysis, rv readView, stats *Stats) (*rowSet, bool, error) {
	root, opts, em := rv.eff, rv.opts, rv.em
	target := scanTarget(an.body, root, an, an.newEnv(), opts)
	if target == nil || target.Len() < minPartition {
		return nil, false, nil
	}
	chunks := splitChunks(target.Elems(), opts.Workers)
	if len(chunks) < 2 {
		return nil, false, nil
	}
	if em != nil {
		em.parallelOps.Inc()
		em.partitions.Add(uint64(len(chunks)))
	}
	rows := make([]*rowSet, len(chunks))
	errs := make([]error, len(chunks))
	chunkStats := make([]Stats, len(chunks))
	var wg sync.WaitGroup
	for w, chunk := range chunks {
		wg.Add(1)
		go func(w int, chunk []object.Object) {
			defer wg.Done()
			if em != nil {
				em.workerBusy.Add(1)
				defer em.workerBusy.Add(-1)
			}
			// Workers share the compiled body read-only — same consumed
			// lists and ranks as sequential evaluation.
			ev := newEvaluator(ctx, an, opts, &chunkStats[w])
			ev.part = &partition{set: target, elems: chunk}
			out := newRowSet(an.width)
			rows[w] = out
			errs[w] = ev.satisfy(an.body, root, func() error {
				out.add(ev.env.window(an.width))
				return nil
			})
		}(w, chunk)
	}
	wg.Wait()
	for w := range chunkStats {
		stats.add(chunkStats[w])
	}
	for _, err := range errs {
		if err != nil {
			return newRowSet(an.width), true, err
		}
	}
	var mergeStart time.Time
	if em != nil {
		mergeStart = time.Now()
	}
	merged := rows[0]
	for _, r := range rows[1:] {
		merged.addAll(r)
	}
	if em != nil {
		em.mergeLatency.Observe(time.Since(mergeStart))
	}
	return merged, true, nil
}

// SetWorkers sets the degree of intra-operation parallelism (see
// Options.Workers). Values below zero clamp to zero (sequential). The
// published MVCC head is dropped because snapshots capture the options
// they evaluate under.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.opts.Workers = n
	e.invalidateHead()
}

// Workers returns the configured parallelism degree.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opts.Workers
}
