package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idl"
	"idl/internal/server"
)

// Workload names one traffic mix. The names are the contract later
// issues cite ("p50_us on served.point"); Why is printed with the
// results and mirrored in BENCHMARK.json.
type Workload struct {
	Name   string
	Why    string
	Size   Size
	Served bool // driven over loopback HTTP rather than in-process
	Mixed  bool // writes beside reads, on a WAL-backed DB
}

const (
	// planCacheSize is the engine's plan-cache capacity; pool sizes are
	// chosen against it (4× it on embedded.point, well inside it on
	// served.point).
	planCacheSize     = 256
	embeddedPointPool = 4 * planCacheSize
	servedPointPool   = 96
	scanPoolSize      = 7 // ScanPool's shapes; the test holds the two together
	zipfSkew          = 1.1
	// zipfDrawsPerClient is one client's pre-drawn rank sequence; it is
	// cycled, and long enough that a run never sees the seam matter.
	zipfDrawsPerClient = 1 << 16
)

var workloads = []Workload{
	{
		Name: "embedded.point", Size: DLarge,
		Why: "in-process point lookups, Zipf over a pool 4x the plan cache: parse, plan hit/miss and facade telemetry dominate; no wire",
	},
	{
		Name: "served.point", Size: DLarge, Served: true,
		Why: "point lookups over loopback HTTP, pool inside the plan cache: server decode/admission/render/encode and net/http dominate",
	},
	{
		Name: "served.scan", Size: DLarge, Served: true,
		Why: "the paper's heavy higher-order shapes over loopback HTTP, answers to 1800 rows: evaluation, render and big-body encode dominate",
	},
	{
		Name: "served.mixed", Size: DSmall, Served: true, Mixed: true,
		Why: "1 program-call write in 10 beside view reads on a WAL-backed DB: every write forces COW, view refresh and a WAL append",
	},
}

func workloadByName(name string) (*Workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// Config is one run's plan. The zero value is not usable; see
// defaultConfig and quickConfig.
type Config struct {
	Seed    uint64
	Clients int
	Windows int
	Window  time.Duration
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median, and the last instance built is the one measured.
	SetupReps int
	// LogRecords is the least number of committed WAL records in the
	// crash-shaped log that served.mixed's timed set-up recovers.
	LogRecords int
	// TraceFor bounds the ladder walk of a traced run; the 1- and
	// 2-client reference runs after it take a third of it each.
	TraceFor time.Duration
	// Dir holds everything the benchmark writes: WAL directories while it
	// runs, trace.jsonl and result files after.
	Dir string
}

func defaultConfig() Config {
	return Config{
		Seed:       1,
		Clients:    min(2, runtime.NumCPU()),
		Windows:    10,
		Window:     2500 * time.Millisecond,
		SetupReps:  9,
		LogRecords: 2500,
		TraceFor:   15 * time.Second,
		Dir:        filepath.Join("bench", "results"),
	}
}

// script yields one client's operations, endlessly.
type script interface{ Next() Op }

// poolScript walks a statement pool in a pre-drawn order.
type poolScript struct {
	pool  []Stmt
	order []uint16
	pos   int
}

func (p *poolScript) Next() Op {
	s := p.pool[p.order[p.pos]]
	if p.pos++; p.pos == len(p.order) {
		p.pos = 0
	}
	return Op{Stmt: s}
}

// cycleFrom is the uniform order: the whole pool, round and round,
// starting at offset so the clients are not in lock-step.
func cycleFrom(n, offset int) []uint16 {
	order := make([]uint16, n)
	for i := range order {
		order[i] = uint16((offset + i) % n)
	}
	return order
}

// transport carries one client's statements to the program and times
// them as the caller sees them.
type transport interface {
	query(ctx context.Context, text string) (answer string, lat time.Duration, err error)
	exec(ctx context.Context, text string) (lat time.Duration, err error)
	close()
}

// embedded calls the facade in-process. The canonical render needed for
// the byte-comparison happens after the clock stops: an embedded caller
// gets a *Result, not a string.
type embedded struct{ db *idl.DB }

func (e embedded) query(ctx context.Context, text string) (string, time.Duration, error) {
	start := time.Now()
	ans, err := e.db.QueryCtx(ctx, text)
	lat := time.Since(start)
	if err != nil {
		return "", lat, err
	}
	return ans.String(), lat, nil
}

func (e embedded) exec(ctx context.Context, text string) (time.Duration, error) {
	start := time.Now()
	_, err := e.db.ExecCtx(ctx, text)
	return time.Since(start), err
}

func (embedded) close() {}

// wire speaks the server's protocol through its own client over one
// keep-alive connection.
type wire struct{ c *server.Client }

func newWire(base string) wire {
	c := server.NewClient(base)
	c.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return wire{c: c}
}

func (w wire) query(ctx context.Context, text string) (string, time.Duration, error) {
	start := time.Now()
	resp, err := w.c.Query(ctx, text)
	lat := time.Since(start)
	if err != nil {
		return "", lat, err
	}
	return resp.Answer, lat, nil
}

func (w wire) exec(ctx context.Context, text string) (time.Duration, error) {
	start := time.Now()
	_, err := w.c.Exec(ctx, text)
	return time.Since(start), err
}

func (w wire) close() { w.c.HTTP.CloseIdleConnections() }

// inputs is everything the generator made for one workload and seed,
// before any clock starts.
type inputs struct {
	data   *Dataset
	script string
	// pool is what the warm-up walks and the timed run draws from. The
	// clients of served.mixed run generated scripts instead; its pool is
	// the warm-up only.
	pool     []Stmt
	partners []Stmt // oracle-only statements of the same intentions
}

func (w *Workload) generate(seed uint64) *inputs {
	in := &inputs{data: NewDataset(seed, w.Size)}
	in.script = in.data.Script()
	switch w.Name {
	case "embedded.point":
		in.pool = in.data.PointPool(seed, embeddedPointPool)
	case "served.point":
		in.pool = in.data.PointPool(seed, servedPointPool)
	case "served.scan":
		in.pool, in.partners = in.data.ScanPool()
	case "served.mixed":
		// Warm-up reads base facts through all four views and writes
		// nothing, so a discarded set-up leaves the log as it found it.
		in.pool = in.data.ViewReads(seed, 8)
	}
	return in
}

// instance is one warm system under test: a DB, for served workloads a
// server on a loopback socket, and the clients' scripts and transports.
type instance struct {
	w      *Workload
	in     *inputs
	db     *idl.DB
	srv    *server.Server
	httpd  *http.Server
	served chan error // Serve's return, so stop can wait for it
	base   string
	conns  atomic.Int64 // connections the server accepted

	walDir   string
	recovery *idl.RecoveryReport
	recoverS float64
}

// walOptions is how served.mixed opens its log: group commit, the mode a
// served deployment that values throughput runs in. Real-device fsync
// latency is the sandbox's, not a disk's.
var walOptions = idl.WALOptions{Durability: idl.DurabilityGroup}

// configureDB sets a DB up as cmd/idld does by default.
func configureDB(db *idl.DB) {
	db.Metrics()
	db.EnableInsights(idl.InsightsConfig{SlowFactor: 4})
}

// serve puts the instance's DB behind a real loopback socket.
func (in *instance) serve() error {
	in.srv = server.New(in.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.httpd = &http.Server{
		Handler: in.srv.Handler(),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				in.conns.Add(1)
			}
		},
	}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpd.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	return nil
}

// stop shuts the server down and waits for it. The DB is abandoned, not
// closed: for served.mixed that is the crash the next recovery replays.
func (in *instance) stop() {
	if in.httpd != nil {
		in.httpd.Close()
		<-in.served
		in.httpd = nil
	}
}

// transport returns a fresh transport of the workload's kind.
func (in *instance) transport() transport {
	if in.w.Served {
		return newWire(in.base)
	}
	return embedded{db: in.db}
}

// allFacts reads the whole unified view; it is also the statement whose
// first evaluation materialises every view.
const allFacts = "?.dbI.p(.date=D, .stk=S, .price=P)"

// build performs one timed set-up: from opening the DB to warm. withServer
// forces a server even for an embedded workload (the ladder needs one).
func (w *Workload) build(ctx context.Context, in *inputs, walDir string, withServer bool) (*instance, time.Duration, error) {
	inst := &instance{w: w, in: in, walDir: walDir}
	start := time.Now()
	if w.Mixed {
		db, rep, err := idl.OpenWAL(walDir, walOptions)
		if err != nil {
			return nil, 0, fmt.Errorf("open wal: %w", err)
		}
		inst.db, inst.recovery, inst.recoverS = db, rep, time.Since(start).Seconds()
		configureDB(db)
	} else {
		inst.db = idl.Open()
		configureDB(inst.db)
		if _, err := inst.db.LoadCtx(ctx, in.script); err != nil {
			return nil, 0, fmt.Errorf("bootstrap: %w", err)
		}
	}
	if _, err := inst.db.QueryCtx(ctx, allFacts); err != nil {
		return nil, 0, fmt.Errorf("first view read: %w", err)
	}
	if w.Served || withServer {
		if err := inst.serve(); err != nil {
			return nil, 0, err
		}
	}
	t := inst.transport()
	defer t.close()
	for pass := 0; pass < 2; pass++ {
		for _, s := range in.pool {
			if _, _, err := t.query(ctx, s.Text); err != nil {
				inst.stop()
				return nil, 0, fmt.Errorf("warm-up %q: %w", s.Text, err)
			}
		}
	}
	return inst, time.Since(start), nil
}

// mixedState is served.mixed's untimed preparation: the crash-shaped
// log and the clients' scripts, advanced past the writes already in it.
type mixedState struct {
	logDir          string
	scripts         []*MixedScript
	records         int
	writesPerClient int
}

// writeCrashLog bootstraps a WAL-backed DB from the generated script,
// runs the clients' writes until the log holds at least cfg.LogRecords
// committed records, and abandons the DB without Close or Checkpoint.
func writeCrashLog(ctx context.Context, cfg Config, in *inputs, dir string) (*mixedState, error) {
	db, _, err := idl.OpenWAL(dir, walOptions)
	if err != nil {
		return nil, err
	}
	if _, err := db.LoadCtx(ctx, in.script); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	st := &mixedState{logDir: dir}
	for c := 0; c < cfg.Clients; c++ {
		st.scripts = append(st.scripts, in.data.NewMixedScript(cfg.Seed, c))
	}
	appended := func() int {
		ws, _ := db.WALStatus()
		return int(ws.Appended)
	}
	// At least the prefill, so every client enters the run with its full
	// set of live quotes and deletes never miss.
	for n := 0; appended() < cfg.LogRecords || n < mixedLive; n++ {
		for _, sc := range st.scripts {
			if _, err := db.ExecCtx(ctx, sc.NextWrite().Stmt.Text); err != nil {
				return nil, fmt.Errorf("log write: %w", err)
			}
		}
		st.writesPerClient++
	}
	st.records = appended()
	return st, nil
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// prepared is a workload ready to be driven: the last instance of the
// repeated set-up, the clients' scripts, and what set-up cost.
type prepared struct {
	inst     *instance
	scripts  []script
	mixed    *mixedState
	setupS   []float64 // every repetition, seconds
	recoverS []float64
	scratch  string
}

// prepare generates the inputs, repeats the timed set-up cfg.SetupReps
// times, keeps the last instance and fills in the oracle.
func (w *Workload) prepare(ctx context.Context, cfg Config, withServer bool) (*prepared, error) {
	in := w.generate(cfg.Seed)
	p := &prepared{}
	if w.Mixed {
		var err error
		if p.scratch, err = os.MkdirTemp(cfg.Dir, "wal-"); err != nil {
			return nil, err
		}
		if p.mixed, err = writeCrashLog(ctx, cfg, in, filepath.Join(p.scratch, "crashed")); err != nil {
			p.cleanup()
			return nil, err
		}
	}
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if p.inst != nil {
			p.inst.stop()
		}
		var walDir string
		if w.Mixed {
			walDir = filepath.Join(p.scratch, fmt.Sprintf("rep%d", rep))
			if err := copyDir(p.mixed.logDir, walDir); err != nil {
				p.cleanup()
				return nil, err
			}
		}
		// Start every repetition from a collected heap, so one set-up's
		// garbage is not the next one's GC bill.
		runtime.GC()
		inst, took, err := w.build(ctx, in, walDir, withServer)
		if err != nil {
			p.cleanup()
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		p.inst = inst
		p.setupS = append(p.setupS, took.Seconds())
		p.recoverS = append(p.recoverS, inst.recoverS)
	}
	if err := p.inst.oracle(ctx); err != nil {
		p.cleanup()
		return nil, fmt.Errorf("%s: oracle: %w", w.Name, err)
	}
	for c := 0; c < cfg.Clients; c++ {
		p.scripts = append(p.scripts, p.script(cfg, c))
	}
	return p, nil
}

// script returns client c's script for the timed run.
func (p *prepared) script(cfg Config, c int) script {
	pool := p.inst.in.pool
	switch p.inst.w.Name {
	case "embedded.point":
		r := newRNG(cfg.Seed, fmt.Sprintf("zipf%d", c))
		return &poolScript{pool: pool, order: zipfDraws(r, zipfSkew, len(pool), zipfDrawsPerClient)}
	case "served.mixed":
		return p.mixed.scripts[c]
	default:
		return &poolScript{pool: pool, order: cycleFrom(len(pool), c*len(pool)/cfg.Clients)}
	}
}

// cleanup stops the instance and removes what set-up wrote to disk.
func (p *prepared) cleanup() {
	if p.inst != nil {
		p.inst.stop()
	}
	if p.scratch != "" {
		os.RemoveAll(p.scratch)
	}
}

// oracle computes every pool statement's answer once through DB.Query
// and stores it as the statement's Want; where the generator predicted
// the answer, the two must already agree. Then it checks the paper's
// claim: statements of one intention — euter, chwab, ource, and the views
// over them — agree after projection onto their variables.
func (in *instance) oracle(ctx context.Context) error {
	byIntent := map[string]string{}
	check := func(s *Stmt) error {
		ans, err := in.db.QueryCtx(ctx, s.Text)
		if err != nil {
			return fmt.Errorf("%q: %w", s.Text, err)
		}
		got := ans.String()
		if s.Want != "" && s.Want != got {
			return fmt.Errorf("%q: program answers %q, generator predicts %q", s.Text, got, s.Want)
		}
		s.Want = got
		if s.Intent == "" {
			return nil
		}
		proj := project(got)
		if prev, ok := byIntent[s.Intent]; ok && prev != proj {
			return fmt.Errorf("intention %s: %q disagrees with another layout:\n%s\nvs\n%s", s.Intent, s.Text, clip(proj), clip(prev))
		}
		byIntent[s.Intent] = proj
		return nil
	}
	for _, list := range [][]Stmt{in.in.pool, in.in.partners} {
		for i := range list {
			if err := check(&list[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// project re-renders a canonical answer with its columns in variable-name
// order and its rows sorted, so answers that bind the same variables in a
// different order compare equal.
func project(answer string) string {
	lines := strings.Split(answer, "\n")
	vars := strings.Split(lines[0], "\t")
	cols := make([]int, len(vars))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(a, b int) bool { return vars[cols[a]] < vars[cols[b]] })
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		cells := strings.Split(line, "\t")
		row := make([]string, len(cols))
		for i, c := range cols {
			if c < len(cells) {
				row[i] = cells[c]
			}
		}
		out = append(out, strings.Join(row, "\t"))
	}
	sort.Strings(out[1:])
	return strings.Join(out, "\n")
}

func clip(s string) string {
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return s
}

// windowRec is what one client did in one window.
type windowRec struct {
	lat    []uint32 // nanoseconds, correct operations only
	failed int
}

// drive runs the closed loop: each client sends its next operation only
// when the previous one has been answered and checked. An operation
// belongs to the window in which it completed; the one in flight when
// the last window closes is finished and not counted.
func (p *prepared) drive(ctx context.Context, clients, windows int, window time.Duration) [][]windowRec {
	recs := make([][]windowRec, clients)
	transports := make([]transport, clients)
	for c := range recs {
		recs[c] = make([]windowRec, windows)
		for w := range recs[c] {
			recs[c][w].lat = make([]uint32, 0, 1<<16)
		}
		transports[c] = p.inst.transport()
	}
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer transports[c].close()
			w, deadline := 0, start.Add(window)
			for {
				lat, err := do(ctx, transports[c], p.scripts[c].Next())
				for now := time.Now(); !now.Before(deadline); deadline = deadline.Add(window) {
					w++
				}
				if w >= windows {
					return
				}
				if err != nil {
					recs[c][w].failed++
					continue
				}
				recs[c][w].lat = append(recs[c][w].lat, uint32(min(lat, time.Duration(1<<32-1))))
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// errWrongAnswer marks an operation that was answered, but not with the
// oracle's bytes.
var errWrongAnswer = errors.New("wrong answer")

// do performs one operation and checks it.
func do(ctx context.Context, t transport, op Op) (time.Duration, error) {
	if op.Write {
		return t.exec(ctx, op.Stmt.Text)
	}
	got, lat, err := t.query(ctx, op.Stmt.Text)
	if err == nil && got != op.Stmt.Want {
		err = errWrongAnswer
	}
	return lat, err
}

// modelCheck compares the unified view with what the generator and the
// clients' acked writes say it must hold; it returns the number of
// facts that differ.
func (p *prepared) modelCheck(ctx context.Context, db *idl.DB) (int, error) {
	want := map[string]bool{}
	d := p.inst.in.data
	for si, stk := range d.Stocks {
		for di, date := range d.Dates {
			want[fmt.Sprintf("%s\t%s\t%d", date, stk, d.Price[si][di])] = true
		}
	}
	for _, sc := range p.mixed.scripts {
		for c, price := range sc.Live {
			want[fmt.Sprintf("%s\t%s\t%d", c.Date, c.Stock, price)] = true
		}
	}
	ans, err := db.QueryCtx(ctx, allFacts)
	if err != nil {
		return 0, err
	}
	diff := 0
	for _, row := range strings.Split(ans.String(), "\n")[1:] {
		if want[row] {
			delete(want, row)
		} else {
			diff++
		}
	}
	return diff + len(want), nil
}

// reopenCheck abandons served.mixed's DB as a crash would and recovers its
// log once more; the model is compared before and after, and the number
// of comparisons that failed (0 to 2) is returned.
func (p *prepared) reopenCheck(ctx context.Context) (int, error) {
	before, err := p.modelCheck(ctx, p.inst.db)
	if err != nil {
		return 0, err
	}
	p.inst.stop()
	db, _, err := idl.OpenWAL(p.inst.walDir, walOptions)
	if err != nil {
		return 0, fmt.Errorf("re-open: %w", err)
	}
	after, err := p.modelCheck(ctx, db)
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, diffs := range []int{before, after} {
		if diffs != 0 {
			failed++
		}
	}
	return failed, nil
}
