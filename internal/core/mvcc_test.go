package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idl/internal/ast"
	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/stocks"
)

// renderAnswer flattens an answer — variables, then every row in raw
// order — into one byte-comparable string.
func renderAnswer(ans *Answer) string {
	var b strings.Builder
	b.WriteString(strings.Join(ans.Vars, ","))
	for _, r := range ans.Rows() {
		b.WriteString("\n")
		for _, v := range ans.Vars {
			fmt.Fprintf(&b, "%s=%v;", v, r.Get(v))
		}
	}
	return b.String()
}

// pinnedAnswer evaluates src against one pinned snapshot version.
func pinnedAnswer(t testing.TB, e *Engine, v *version, src string) string {
	t.Helper()
	query, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ctx := context.Background()
	ans, _, err := e.runQuery(cancellable(ctx), ctx, query, nil, v.readView, readQuery)
	if err != nil {
		t.Fatalf("snapshot query %q: %v", src, err)
	}
	return renderAnswer(ans)
}

// TestMVCCRepeatableRead is the snapshot-isolation oracle: a reader that
// pins a version sees byte-identical answers no matter how many
// mutations, DDL statements, or rule registrations commit after the pin.
func TestMVCCRepeatableRead(t *testing.T) {
	e := newStockEngine(t)
	queries := []string{
		"?.euter.r(.stkCode=S, .clsPrice>200)",
		"?.euter.r(.date=D, .stkCode=hp, .clsPrice=P)",
		"?.chwab.r(.date=D, .hp=P)",
		"?.ource.S(.clsPrice>200)",
	}
	// A first read publishes the head; then pin it.
	q(t, e, queries[0])
	v := e.pinHead()
	if v == nil {
		t.Fatal("no head published after a query")
	}
	defer v.unpin()
	want := make([]string, len(queries))
	for i, src := range queries {
		want[i] = pinnedAnswer(t, e, v, src)
	}

	// Churn everything the snapshot must be isolated from: element
	// updates on every schema, new relations, and rule registrations.
	for i := 0; i < 8; i++ {
		exec(t, e, fmt.Sprintf("?.euter.r+(.date=3/%d/85,.stkCode=w%d,.clsPrice=%d)", 10+i, i, 300+i))
		exec(t, e, "?.chwab.r(.date=3/1/85,.hp-=1)")
		exec(t, e, fmt.Sprintf("?.ource.hp+(.date=3/%d/85,.clsPrice=%d)", 10+i, 400+i))
		mustRule(t, e, fmt.Sprintf(".dbI.v%d(.stk=S) <- .euter.r(.stkCode=S)", i))
		// Interleave reads so fresh versions are frozen and the retention
		// window slides past the pinned snapshot.
		q(t, e, queries[0])
		for qi, src := range queries {
			if got := pinnedAnswer(t, e, v, src); got != want[qi] {
				t.Fatalf("round %d: pinned answer for %q changed:\n got %s\nwant %s", i, src, got, want[qi])
			}
		}
	}

	st := e.MVCCStats()
	if st.PinnedReaders == 0 || len(st.PinnedEpochs) == 0 {
		t.Fatalf("pinned snapshot invisible in stats: %+v", st)
	}
	if st.PinnedEpochs[0] != v.epoch {
		t.Fatalf("pinned epoch %d, stats report %v", v.epoch, st.PinnedEpochs)
	}
	if st.Collected == 0 {
		t.Fatalf("retention never collected despite %d freezes: %+v", st.Freezes, st)
	}
	if st.COWClones == 0 {
		t.Fatal("writers never copy-on-wrote a published set")
	}
}

// TestMVCCRetentionBound pins the GC policy: unpinned versions beyond
// the newest maxRevisions are collected at each freeze, and the head
// plus pinned versions always survive.
func TestMVCCRetentionBound(t *testing.T) {
	e := NewEngine()
	buildStockBase(t, e)
	const cycles = 3 * maxRevisions
	for i := 0; i < cycles; i++ {
		exec(t, e, fmt.Sprintf("?.euter.r+(.date=3/%d/85,.stkCode=g%d,.clsPrice=1)", 1+i%28, i))
		q(t, e, "?.euter.r(.clsPrice>200)") // freezes a fresh version
	}
	st := e.MVCCStats()
	if st.LiveVersions != maxRevisions || st.MaxRevisions != maxRevisions {
		t.Fatalf("%d live versions, want the bound %d: %+v", st.LiveVersions, maxRevisions, st)
	}
	if !st.HeadPublished || st.HeadEpoch == 0 {
		t.Fatalf("no published head after reads: %+v", st)
	}
	if st.Collected != st.Freezes-maxRevisions || st.Freezes < cycles {
		t.Fatalf("collected %d of %d versions frozen across %d cycles: %+v", st.Collected, st.Freezes, cycles, st)
	}
	if st.RetainedBytes <= 0 {
		t.Fatalf("retained-bytes estimate empty: %+v", st)
	}
}

// TestMVCCConcurrentChurn is the -race stress: unsynchronized readers
// against a writer flipping one tuple in and out, a DDL/member-install
// churner, and a rule registrar. Every reader answer must equal one of
// the two serializable states, and the stable part of the fixture must
// read back byte-identically throughout.
func TestMVCCConcurrentChurn(t *testing.T) {
	e := newStockEngine(t)

	churnQ := "?.euter.r(.stkCode=churn, .clsPrice=P)"
	stableQ := "?.euter.r(.stkCode=S, .clsPrice>200)"
	absent := renderAnswer(q(t, e, churnQ))
	stable := renderAnswer(q(t, e, stableQ))
	exec(t, e, "?.euter.r+(.date=3/9/85,.stkCode=churn,.clsPrice=5)")
	present := renderAnswer(q(t, e, churnQ))
	exec(t, e, "?.euter.r-(.stkCode=churn)")
	if absent == present {
		t.Fatal("oracle states indistinguishable")
	}

	parse := func(src string) *ast.Query {
		query, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return query
	}
	churnAST, stableAST := parse(churnQ), parse(stableQ)

	const writerRounds = 120
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Writer: flip the churn tuple in and out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ins := parse("?.euter.r+(.date=3/9/85,.stkCode=churn,.clsPrice=5)")
		del := parse("?.euter.r-(.stkCode=churn)")
		for i := 0; i < writerRounds; i++ {
			if _, err := e.Execute(ins); err != nil {
				errs <- fmt.Errorf("writer insert: %w", err)
				return
			}
			if _, err := e.Execute(del); err != nil {
				errs <- fmt.Errorf("writer delete: %w", err)
				return
			}
		}
	}()

	// DDL / member-snapshot churner: install and remove a scratch
	// database through the same UpdateBase path Sync uses.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			i++
			rel := object.NewSet()
			rel.Add(object.TupleOf("k", i))
			scratch := object.NewTuple()
			scratch.Put("t", rel)
			e.UpdateBase(func(base *object.Tuple) bool {
				base.Put("scratch", scratch)
				return true
			})
			e.UpdateBase(func(base *object.Tuple) bool {
				return base.Delete("scratch")
			})
		}
	}()

	// Rule registrar: epoch churn from registration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			r, err := parser.ParseRule(fmt.Sprintf(".dbI.churn%d(.stk=S) <- .euter.r(.stkCode=S)", i))
			if err != nil {
				errs <- fmt.Errorf("parse rule: %w", err)
				return
			}
			if err := e.AddRule(r); err != nil {
				errs <- fmt.Errorf("add rule: %w", err)
				return
			}
		}
	}()

	// Readers: every answer must be a serializable state.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ans, err := e.Query(churnAST)
				if err != nil {
					errs <- fmt.Errorf("reader churn query: %w", err)
					return
				}
				if got := renderAnswer(ans); got != absent && got != present {
					errs <- fmt.Errorf("reader saw a non-serializable state:\n got %s", got)
					return
				}
				ans, err = e.Query(stableAST)
				if err != nil {
					errs <- fmt.Errorf("reader stable query: %w", err)
					return
				}
				if got := renderAnswer(ans); got != stable {
					errs <- fmt.Errorf("stable rows changed under churn:\n got %s\nwant %s", got, stable)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := e.MVCCStats(); st.PinnedReaders != 0 {
		t.Fatalf("reader pins leaked: %+v", st)
	}
}

// TestMVCCViewMaintenanceUnderReaders: delta maintenance rewrites the
// overlay's relations in place (through copy-on-write) while lock-free
// readers evaluate the views on pinned snapshots. Within one snapshot
// the four views must agree on the churned quote — each implies the
// next, round the cycle — or the snapshot saw a half-maintained
// overlay.
func TestMVCCViewMaintenanceUnderReaders(t *testing.T) {
	e := newStockEngine(t)
	addRules(t, e, append(append([]string{}, stocks.RulesUnified...), stocks.RulesCustomized...))
	for _, c := range append(append([]string{}, stocks.ProgramInsStk...), stocks.ProgramDelStk...) {
		mustClause(t, e, c)
	}
	parse := func(src string) *ast.Query {
		query, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return query
	}
	quote := []string{
		".dbI.p(.stk=dec, .date=3/2/85, .price=P)",
		".dbC.r(.date=3/2/85, .dec=P)",
		".dbO.dec(.date=3/2/85, .clsPrice=P)",
		".dbE.r(.stkCode=dec, .date=3/2/85, .clsPrice=P)",
	}
	var disagree []*ast.Query
	for i, v := range quote {
		next := quote[(i+1)%len(quote)]
		disagree = append(disagree, parse(fmt.Sprintf("?%s, ~%s", v, next)))
	}
	anyView := parse("?.dbI.p(.stk=dec, .price=P)")
	ins := parse("?.dbU.insStk(.stk=dec, .date=3/2/85, .price=77)")
	del := parse("?.dbU.delStk(.stk=dec, .date=3/2/85)")
	q(t, e, "?.dbC.r")

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 150; i++ {
			for _, w := range []*ast.Query{ins, del} {
				if _, err := e.Execute(w); err != nil {
					errs <- fmt.Errorf("writer: %w", err)
					return
				}
				if _, err := e.Query(anyView); err != nil { // refresh, usually by delta
					errs <- fmt.Errorf("writer's read: %w", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, d := range disagree {
					ans, err := e.Query(d)
					if err != nil {
						errs <- fmt.Errorf("reader: %w", err)
						return
					}
					if ans.Bool() {
						errs <- fmt.Errorf("views disagree within one snapshot (%s):\n%s", d, ans)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Both committed states were reachable, and the last one is "deleted":
	// the views must agree on it.
	if ans := q(t, e, "?.dbO.S, S = dec"); ans.Bool() {
		t.Errorf("dbO.dec survived the final delete:\n%s", ans)
	}
	if !e.LastRecompute().Delta {
		t.Error("the churn should be maintained by delta")
	}
	assertOverlayFresh(t, e)
}

// parkingCtx parks the read it is handed at its second Err call — read's
// entry check is the first, the evaluator's first amortized poll the
// second — closing parked and blocking until release is closed.
type parkingCtx struct {
	context.Context
	calls   atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

func (c *parkingCtx) Err() error {
	if c.calls.Add(1) == 2 {
		close(c.parked)
		<-c.release
	}
	return nil
}

// TestSlowPathReadEvaluatesUnlocked: the first read after a write
// refreshes and freezes a version under e.mu, but evaluates it unlocked,
// so a caller of e.mu (MVCCStats) is served while that read is parked
// mid-evaluation. The fixture has no rules: the refresh evaluates nothing
// and cannot poll the context.
func TestSlowPathReadEvaluatesUnlocked(t *testing.T) {
	e := bigStockEngine(t)
	exec(t, e, "?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=63)")
	// 60 × 60 join candidates: past the evaluator's 1024-operation poll.
	query, err := parser.ParseQuery("?.euter.r(.stkCode=A), .euter.r(.stkCode=B)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &parkingCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryCtx(ctx, query)
		done <- err
	}()
	<-ctx.parked
	stats := make(chan MVCCStats, 1)
	go func() { stats <- e.MVCCStats() }()
	select {
	case st := <-stats:
		if st.PinnedReaders != 1 || !st.HeadPublished {
			t.Errorf("parked read: %+v, want the head published and pinned once", st)
		}
	case <-time.After(5 * time.Second):
		t.Error("MVCCStats blocked on e.mu while the first read after a write evaluated")
	}
	close(ctx.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
