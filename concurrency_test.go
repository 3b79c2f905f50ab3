package idl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"idl/internal/stocks"
)

// The DB (and the underlying Engine) serialize mutations behind one
// mutex and answer reads from pinned snapshots; these tests exercise
// mixed workloads under the race detector and check the end state is
// coherent.

// TestFacadeReadDuringHeldCommit pins the facade half of the MVCC
// contract: with a head snapshot published, a read through DB.QueryCtx or
// Prepared.QueryCtx — traced or not — completes while a commit holds the
// engine mutex. The statement pipeline must therefore take no engine lock
// for its own bookkeeping, and tracing must not move the read onto one.
func TestFacadeReadDuringHeldCommit(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			db := Open()
			seedStocks(t, db)
			if traced {
				db.EnableTracing(16)
			}
			const src = "?.euter.r(.stkCode=S, .clsPrice>100)"
			prep, err := db.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			// Publish a head, and learn the answer the parked reads must give.
			want, err := db.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			before := db.MVCCStats()
			if !before.HeadPublished {
				t.Fatal("no head snapshot published after a read")
			}

			// Park a commit inside Engine.UpdateBase's critical section. It
			// reports no change, so the published head stays valid.
			parked, release := make(chan struct{}), make(chan struct{})
			committed := make(chan struct{})
			go func() {
				defer close(committed)
				db.Engine().UpdateBase(func(*Tuple) bool {
					close(parked)
					<-release
					return false
				})
			}()
			<-parked

			reads := map[string]func(context.Context) (*Result, error){
				"DB.QueryCtx":       func(ctx context.Context) (*Result, error) { return db.QueryCtx(ctx, src) },
				"Prepared.QueryCtx": prep.QueryCtx,
			}
			for what, read := range reads {
				done := make(chan error, 1)
				go func() {
					res, err := read(context.Background())
					if err == nil && res.String() != want.String() {
						err = fmt.Errorf("answer %s, want %s", res, want)
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("%s during a held commit: %v", what, err)
					}
				case <-time.After(2 * time.Second):
					t.Errorf("%s blocked behind a held commit", what)
				}
			}
			close(release)
			<-committed

			// The reads ran on the published head — pinned it, froze nothing
			// new — and let go of it.
			after := db.MVCCStats()
			if after.Freezes != before.Freezes || !after.HeadPublished {
				t.Errorf("freezes %d -> %d, head published %t: parked reads did not pin the published head",
					before.Freezes, after.Freezes, after.HeadPublished)
			}
			if after.PinnedReaders != 0 {
				t.Errorf("pinned readers = %d after the reads returned, want 0", after.PinnedReaders)
			}
			if traced && len(db.Tracer().Recent()) < 3 {
				t.Errorf("tracer retained %d spans, want the three reads'", len(db.Tracer().Recent()))
			}
		})
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefineViews(
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
	); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := db.Query("?.dbI.p(.stk=S, .price>200)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("rows = %d", res.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var wg sync.WaitGroup
	const writers, perWriter = 4, 25
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src := fmt.Sprintf("?.euter.r+(.date=4/1/85, .stkCode=w%dn%d, .clsPrice=%d)", w, i, i)
				if _, err := db.Exec(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := db.Query("?.euter.r(.date=4/1/85, .stkCode=S)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != writers*perWriter {
		t.Errorf("inserted rows = %d, want %d", res.Len(), writers*perWriter)
	}
}

func TestConcurrentProgramCalls(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	if err := db.DefinePrograms(
		".dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P)",
	); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := db.Call("dbU", "ins", map[string]any{
					"S": fmt.Sprintf("g%dn%d", g, i),
					"D": Date(85, 5, 1),
					"P": i,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, _ := db.Query("?.euter.r(.date=5/1/85, .stkCode=S)")
	if res.Len() != 120 {
		t.Errorf("rows = %d, want 120", res.Len())
	}
}

// TestCtxPreCancelled: a context cancelled before the call starts is
// honored at the entry point, before the engine does any work.
func TestCtxPreCancelled(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryCtx on cancelled ctx: %v", err)
	}
	if _, err := db.ExecCtx(ctx, "?.euter.r+(.date=4/1/85, .stkCode=zz, .clsPrice=1)"); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecCtx on cancelled ctx: %v", err)
	}
	if _, err := db.LoadCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadCtx on cancelled ctx: %v", err)
	}
	// The cancelled update must not have mutated the universe.
	res, err := db.Query("?.euter.r(.stkCode=zz)")
	if err != nil || res.Len() != 0 {
		t.Errorf("cancelled exec leaked a write: %v %v", res, err)
	}
}

// TestCtxCancelMidEnumeration aborts a deliberately explosive join
// (500³ candidate combinations, no satisfying rows) shortly after it
// starts; the evaluator's amortized cancellation checks must surface
// context.Canceled long before the enumeration could finish.
func TestCtxCancelMidEnumeration(t *testing.T) {
	db := Open()
	u, _ := stocks.Universe(stocks.Config{Stocks: 25, Days: 20, Seed: 7})
	u.Each(func(name string, v Value) bool {
		db.Engine().Base().Put(name, v)
		return true
	})
	db.Engine().Invalidate()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Cross product of euter.r with itself twice, with a constraint
		// no row can meet — the engine would enumerate all 1.25e8
		// combinations if left alone. The constraint consumes P3 (bound
		// only by the last scan) so the cost-based scheduler cannot pull
		// it forward to prune the enumeration early.
		_, err := db.QueryCtx(ctx,
			"?.euter.r(.clsPrice=P1), .euter.r(.clsPrice=P2), .euter.r(.clsPrice=P3), P3 > 100000")
		done <- err
	}()
	time.AfterFunc(10*time.Millisecond, cancel)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-enumeration cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query did not honor cancellation within 10s")
	}
}

// TestCtxCancelDuringConcurrentLoad mixes cancelled and uncancelled
// queries under the race detector: cancellation of one caller must not
// disturb the answers of others.
func TestCtxCancelDuringConcurrentLoad(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() == 0 {
					t.Error("steady query lost rows")
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := db.QueryCtx(ctx, "?.euter.r(.stkCode=S)"); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentParallelMountUnmount runs the mixed federation workload
// with parallel evaluation on: member databases mount and unmount while
// other goroutines query, sync, read stats and metrics, and retune the
// worker count. Everything must stay race-clean and the steady queries
// must keep their answers.
func TestConcurrentParallelMountUnmount(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.SetWorkers(4)
	reg := db.Metrics()
	var wg sync.WaitGroup
	// Mount/unmount churn: each goroutine owns a distinct member name, so
	// mounts never collide, and queries its own member while mounted.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			member := Tup("r", SetOf(
				Tup("date", Date(85, 3, 3), "stkCode", "hp", "clsPrice", 50+g),
				Tup("date", Date(85, 3, 4), "stkCode", "sun", "clsPrice", 210),
			))
			for i := 0; i < 20; i++ {
				if err := db.Mount(name, NewMemorySource(name, member)); err != nil {
					t.Error(err)
					return
				}
				res, err := db.Query(fmt.Sprintf("?.%s.r(.stkCode=S, .clsPrice>100)", name))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("member %s rows = %d, want 1", name, res.Len())
					return
				}
				if err := db.Unmount(name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Steady queries over the in-process databases, partitioned big scans
	// included via the self-join shape.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := db.Query("?.euter.r(.date=D,.stkCode=S,.clsPrice=P), .euter.r~(.stkCode=S, .clsPrice>P)")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 3 {
					t.Errorf("all-time highs = %d, want 3", res.Len())
					return
				}
			}
		}()
	}
	// Observability readers and worker-count churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			_ = db.Stats()
			_ = reg.Snapshot()
			_ = db.Workers()
			if _, err := db.Sync(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			db.SetWorkers(i % 8)
		}
	}()
	wg.Wait()
	db.SetWorkers(4)
	res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>200)")
	if err != nil || res.Len() != 1 {
		t.Fatalf("final parallel query: %v %v", res, err)
	}
	if len(db.Sources()) != 0 {
		t.Errorf("members still mounted: %v", db.Sources())
	}
}

// TestConcurrentStatsAndMetrics hammers Stats/ResetStats and the
// metrics registry while queries, traced queries, and ExplainAnalyze
// run from other goroutines. Every operation evaluates into a local
// Stats merged under the engine mutex, so the counters must stay
// coherent under the race detector.
func TestConcurrentStatsAndMetrics(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	reg := db.Metrics()
	db.EnableTracing(8)
	// Traced reads run on pinned snapshots, off the engine mutex: the ad
	// hoc and prepared readers below build their spans and per-conjunct
	// probes concurrently with each other and with the analyze runs.
	prep, err := db.Prepare("?.euter.r(.stkCode=S, .clsPrice>100), .ource.S(.clsPrice=P)")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>100)"); err != nil {
						t.Error(err)
						return
					}
					if _, err := prep.Query(); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := db.ExplainAnalyzeCtx(context.Background(), "?.ource.S(.clsPrice=P)"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_ = db.Stats()
					_ = reg.Snapshot()
					_ = reg.CounterValue("engine.query.count")
				case 3:
					db.Engine().ResetStats()
					db.ResetMetrics()
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles, one more query must record coherently.
	db.Engine().ResetStats()
	db.ResetMetrics()
	if _, err := db.Query("?.euter.r(.stkCode=S)"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ElementsScanned == 0 {
		t.Error("stats should record the final query")
	}
	if reg.CounterValue("engine.query.count") != 1 {
		t.Errorf("query count = %d, want 1", reg.CounterValue("engine.query.count"))
	}
	spans := db.Tracer().Recent()
	if len(spans) == 0 {
		t.Fatal("tracer should retain the final query span")
	}
	if last := spans[len(spans)-1]; last.Name != "query" || len(last.Children) != 1 {
		t.Errorf("final span = %s, want a query span with its one conjunct's probe", last)
	}
	if pinned := db.MVCCStats().PinnedReaders; pinned != 0 {
		t.Errorf("pinned readers = %d after all reads returned", pinned)
	}
}
