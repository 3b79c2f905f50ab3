package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"idl"
	"idl/internal/ast"
	"idl/internal/parser"
	"idl/internal/server"
)

// The ladder measures every layer from outside. One goroutine takes a
// statement and evaluates it again and again, each time through one more
// layer's public entry point: parse → fingerprint → engine → facade →
// render → codec → handler → loopback. Each evaluation is a span; a
// layer's self time is its span minus the spans of the layers it calls,
// so per statement the self times add up to the loopback span exactly.
//
// The spans are separate executions of the same statement, not one
// nested execution, so every rung above `engine` finds the plan the
// engine rung left in the cache: the ladder telescopes in the plan-hit
// regime, and what a plan miss costs is measured beside it (planFirst).

type rung int

const (
	rLoopback    rung = iota // server.Client.Query over the socket
	rHandler                 // Server.Handler().ServeHTTP on a recorder
	rFacade                  // DB.QueryCtx
	rEngine                  // Engine.QueryCtx on the parsed AST, plan cached
	rParse                   // parser.ParseQuery
	rFingerprint             // ast.Fingerprint
	rRender                  // Result.String
	rCodecServer             // decode StatementRequest + encode QueryResponse
	rCodecClient             // marshal StatementRequest + decode QueryResponse
	rPlanFirst               // Engine.QueryCtx, first call: plan hit or miss
	rExec                    // DB.ExecCtx on the WAL-backed DB
	rExecTwin                // DB.ExecCtx on the WAL-less twin
	rReadFirst               // first DB.QueryCtx after a write: pays the refresh
	rReadSteady              // the same query again
	nRungs
)

var rungNames = [nRungs]string{
	"loopback", "handler", "facade", "engine", "parse", "fingerprint", "render",
	"codec.server", "codec.client", "engine.first", "exec", "exec.twin", "read.first", "read.steady",
}

// rungParent is the span tree: which layer's span covers which.
var rungParent = [nRungs]string{
	rHandler: "loopback", rCodecClient: "loopback",
	rFacade: "handler", rRender: "handler", rCodecServer: "handler",
	rParse: "facade", rEngine: "facade",
	rFingerprint: "engine",
}

// span is one timed call into a layer. Spans of one statement share Stmt.
type span struct {
	Stmt   int    `json:"stmt"`
	Shape  string `json:"shape"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// step is one statement's climb.
type step struct {
	shape     string
	d         [nRungs]time.Duration
	plan      string // the first engine call's plan-cache outcome
	rows      uint64 // Answer.Resources.RowsScanned
	bytes     int    // len(Result.String())
	write     bool
	twinFirst bool // the write ran on the twin before the WAL-backed DB
	// For writes: what the first read after it reported and moved.
	rounds, freezes, clones, walBytes uint64
}

func (s *step) us(r rung) float64 { return float64(s.d[r]) / 1e3 }

type ladder struct {
	ctx     context.Context
	inst    *instance
	twin    *idl.DB
	wire    wire
	handler http.Handler
	t0      time.Time
	spans   []span
	steps   []step
	parsed  []*ast.Query // for the allocation pass
	failed  int
}

// timed runs fn as one span of the current step.
func (l *ladder) timed(st *step, r rung, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	st.d[r] = end.Sub(start)
	l.spans = append(l.spans, span{
		Stmt: len(l.steps), Shape: st.shape, Name: rungNames[r], Parent: rungParent[r],
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
}

// check counts an answer that is not the oracle's as a failure.
func (l *ladder) check(got string, err error, s Stmt) {
	if err != nil || got != s.Want {
		l.failed++
	}
}

// checkResult is check for an in-process answer.
func (l *ladder) checkResult(a *idl.Result, err error, s Stmt) {
	if err != nil {
		l.failed++
		return
	}
	l.check(a.String(), nil, s)
}

// climb evaluates one read statement through every layer, innermost first.
func (l *ladder) climb(s Stmt) {
	st := step{shape: s.Shape}
	db, eng := l.inst.db, l.inst.db.Engine()

	var q *ast.Query
	var err error
	l.timed(&st, rParse, func() { q, err = parser.ParseQuery(s.Text) })
	if err != nil {
		l.failed++
		return
	}
	l.timed(&st, rFingerprint, func() { ast.Fingerprint(q) })

	var first, ans *idl.Result
	l.timed(&st, rPlanFirst, func() { first, err = eng.QueryCtx(l.ctx, q) })
	l.checkResult(first, err, s)
	if first != nil && first.Plan != nil {
		st.plan = first.Plan.Cache
	}
	l.timed(&st, rEngine, func() { ans, err = eng.QueryCtx(l.ctx, q) })
	if err != nil {
		l.failed++
		return
	}
	st.rows = ans.Resources.RowsScanned

	var text string
	l.timed(&st, rRender, func() { text = ans.String() })
	l.check(text, nil, s)
	st.bytes = len(text)

	var fa *idl.Result
	l.timed(&st, rFacade, func() { fa, err = db.QueryCtx(l.ctx, s.Text) })
	l.checkResult(fa, err, s)

	// The codec, each side as the program does it: the server decodes
	// the request (unknown fields refused) and encodes the response, the
	// client marshals the request and decodes the response.
	reqBody, _ := json.Marshal(server.StatementRequest{Stmt: s.Text})
	var respBody bytes.Buffer
	l.timed(&st, rCodecServer, func() {
		var req server.StatementRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(reqBody)), 1<<20))
		dec.DisallowUnknownFields()
		dec.Decode(&req)
		json.NewEncoder(&respBody).Encode(server.QueryResponse{Answer: text, Rows: ans.Len()})
	})
	l.timed(&st, rCodecClient, func() {
		json.Marshal(server.StatementRequest{Stmt: s.Text})
		var out server.QueryResponse
		json.NewDecoder(&respBody).Decode(&out)
	})

	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(reqBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	l.timed(&st, rHandler, func() { l.handler.ServeHTTP(rec, req) })
	var out server.QueryResponse
	err = json.Unmarshal(rec.Body.Bytes(), &out)
	l.check(out.Answer, err, s)

	var got string
	l.timed(&st, rLoopback, func() { got, _, err = l.wire.query(l.ctx, s.Text) })
	l.check(got, err, s)

	l.steps = append(l.steps, st)
	if len(l.parsed) < 2048 {
		l.parsed = append(l.parsed, q)
	}
}

// write applies one served.mixed write to the WAL-backed DB and its
// WAL-less twin, then reads the written cell back twice: the first read
// pays the copy-on-write refresh of every view, the second is steady.
func (l *ladder) write(op, readBack Op) {
	st := step{shape: op.Stmt.Shape, write: true}
	db := l.inst.db
	st.twinFirst = len(l.steps)%2 == 0
	onTwin := func() {
		var err error
		l.timed(&st, rExecTwin, func() { _, err = l.twin.ExecCtx(l.ctx, op.Stmt.Text) })
		if err != nil {
			l.failed++
		}
	}
	if st.twinFirst {
		onTwin()
	}
	mvcc, wal := db.MVCCStats(), walBytes(db)
	var err error
	l.timed(&st, rExec, func() { _, err = db.ExecCtx(l.ctx, op.Stmt.Text) })
	if err != nil {
		l.failed++
	}
	st.walBytes = walBytes(db) - wal
	if !st.twinFirst {
		onTwin()
	}

	var first, steady *idl.Result
	l.timed(&st, rReadFirst, func() { first, err = db.QueryCtx(l.ctx, readBack.Stmt.Text) })
	l.checkResult(first, err, readBack.Stmt)
	l.timed(&st, rReadSteady, func() { steady, err = db.QueryCtx(l.ctx, readBack.Stmt.Text) })
	l.checkResult(steady, err, readBack.Stmt)
	if first != nil {
		st.rounds = first.Resources.FixpointRounds
	}
	after := db.MVCCStats()
	st.freezes, st.clones = after.Freezes-mvcc.Freezes, after.COWClones-mvcc.COWClones
	// Keep the twin's published head as fresh as the DB's, so both pay
	// the same copy-on-write on the next write.
	if _, err := l.twin.QueryCtx(l.ctx, readBack.Stmt.Text); err != nil {
		l.failed++
	}
	l.steps = append(l.steps, st)
}

func walBytes(db *idl.DB) uint64 {
	ws, _ := db.WALStatus()
	return uint64(ws.BytesAppended)
}

// agg reduces one per-step quantity to the workload's typical statement:
// the median within each statement shape, averaged over the shapes by
// how often the walk met them. (A plain median over a pool of unlike
// shapes would report whichever shape sits in the middle, and the layers'
// medians would then come from different statements and not add up.)
func (l *ladder) agg(write bool, f func(*step) float64) float64 {
	byShape := map[string][]float64{}
	n := 0
	for i := range l.steps {
		if st := &l.steps[i]; st.write == write {
			byShape[st.shape] = append(byShape[st.shape], f(st))
			n++
		}
	}
	var sum float64
	for _, xs := range byShape {
		sum += median(xs) * float64(len(xs))
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// each collects one per-step quantity over the reads or the writes.
func (l *ladder) each(write bool, f func(*step) float64) []float64 {
	var xs []float64
	for i := range l.steps {
		if st := &l.steps[i]; st.write == write {
			xs = append(xs, f(st))
		}
	}
	return xs
}

// allocsPerOp evaluates the collected statements once more on this
// goroutine alone and divides the heap-object count by their number.
func (l *ladder) allocsPerOp() float64 {
	if len(l.parsed) == 0 {
		return 0
	}
	eng := l.inst.db.Engine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range l.parsed {
		if _, err := eng.QueryCtx(l.ctx, q); err != nil {
			l.failed++
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(l.parsed))
}

// writeTrace writes the spans as JSON lines.
func (l *ladder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twinFor builds served.mixed's WAL-less twin: the same bootstrap and the
// same writes the crash-shaped log holds, with no log underneath.
func twinFor(ctx context.Context, cfg Config, p *prepared) (*idl.DB, error) {
	db := idl.Open()
	configureDB(db)
	if _, err := db.LoadCtx(ctx, p.inst.in.script); err != nil {
		return nil, err
	}
	for c := 0; c < cfg.Clients; c++ {
		sc := p.inst.in.data.NewMixedScript(cfg.Seed, c)
		for i := 0; i < p.mixed.writesPerClient; i++ {
			if _, err := db.ExecCtx(ctx, sc.NextWrite().Stmt.Text); err != nil {
				return nil, err
			}
		}
	}
	_, err := db.QueryCtx(ctx, allFacts)
	return db, err
}

// us reads one rung of a step in microseconds.
func us(r rung) func(*step) float64 { return func(s *step) float64 { return s.us(r) } }

// selfLayers are the layers' self times: each span minus the spans of the
// layers it calls (rungParent). Per statement they add up to the loopback
// span, whatever the spans are.
var selfLayers = []struct {
	name string
	f    func(*step) float64
}{
	{"parser.parse_us", us(rParse)},
	{"ast.fingerprint_us", us(rFingerprint)},
	{"core.eval_us", func(s *step) float64 { return s.us(rEngine) - s.us(rFingerprint) }},
	{"object.render_us", us(rRender)},
	{"idl.facade_self_us", func(s *step) float64 { return s.us(rFacade) - s.us(rParse) - s.us(rEngine) }},
	{"server.codec_us", func(s *step) float64 { return s.us(rCodecServer) + s.us(rCodecClient) }},
	{"server.handler_self_us", func(s *step) float64 {
		return s.us(rHandler) - s.us(rFacade) - s.us(rRender) - s.us(rCodecServer)
	}},
	{"server.transport_self_us", func(s *step) float64 { return s.us(rLoopback) - s.us(rHandler) - s.us(rCodecClient) }},
}

// trace is the traced run: the ladder walk over the workload's own
// statement sequence, then one- and two-client reference runs through the
// workload's transport.
func (w *Workload) trace(ctx context.Context, cfg Config) (*Result, error) {
	p, err := w.prepare(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	l := &ladder{ctx: ctx, inst: p.inst, wire: newWire(p.inst.base), handler: p.inst.srv.Handler()}
	defer l.wire.close()

	// The walker follows client 0's order; on served.mixed it is one more
	// client, with private stock names of its own.
	walker := p.script(cfg, 0)
	if w.Mixed {
		if l.twin, err = twinFor(ctx, cfg, p); err != nil {
			return nil, fmt.Errorf("%s: twin: %w", w.Name, err)
		}
		own := p.inst.in.data.NewMixedScript(cfg.Seed, cfg.Clients)
		p.mixed.scripts = append(p.mixed.scripts, own)
		walker = own
	}
	shed, conns := p.inst.db.Metrics().CounterValue("server.shed"), p.inst.conns.Load()
	runtime.GC()
	l.t0 = time.Now()
	for len(l.steps) < len(p.inst.in.pool) || time.Since(l.t0) < cfg.TraceFor {
		op := walker.Next()
		if op.Write {
			l.write(op, walker.Next())
			continue
		}
		l.climb(op.Stmt)
	}
	connsPerOp := ratio(float64(p.inst.conns.Load()-conns), float64(len(l.each(false, us(rLoopback)))))
	allocs := l.allocsPerOp()
	if err := l.writeTrace(filepath.Join(cfg.Dir, "trace.jsonl")); err != nil {
		return nil, err
	}

	// Reference runs, untraced, through the workload's own transport.
	res := &Result{Workload: w.Name, Why: w.Why, Attempted: len(l.steps), PerLayer: map[string]Metric{}}
	ref := func(clients int) float64 {
		var lat []uint32
		for _, c := range p.drive(ctx, clients, 1, cfg.TraceFor/3) {
			lat = append(lat, c[0].lat...)
			res.Failed += c[0].failed
			res.Attempted += len(c[0].lat) + c[0].failed
		}
		slices.Sort(lat)
		return quantileNS(lat, 0.5)
	}
	one := ref(1)
	two := ref(cfg.Clients)
	if w.Mixed {
		failed, err := p.reopenCheck(ctx)
		if err != nil {
			return nil, err
		}
		res.Attempted += 2
		res.Failed += failed
	}
	res.Failed += l.failed

	put := func(name string, v float64) { res.PerLayer[name] = Metric{Value: v, Unit: unitOf(name)} }
	loopback := l.agg(false, us(rLoopback))
	residual := loopback
	for _, layer := range selfLayers {
		v := l.agg(false, layer.f)
		put(layer.name, v)
		residual -= v
	}
	put("ladder.loopback_us", loopback)
	put("ladder.residual_us", residual)
	put("ladder.served_over_embedded", ratio(l.agg(false, us(rHandler)), l.agg(false, us(rFacade))))
	put("ladder.wait_share", 1-ratio(one, two))
	top := rFacade
	if w.Served {
		top = rLoopback
	}
	put("trace.overhead", ratio(median(l.each(false, us(top))), one))

	var planned, hits float64
	var missExtra []float64
	for i := range l.steps {
		switch st := &l.steps[i]; {
		case st.write || st.plan == "":
		case st.plan == "hit":
			planned++
			hits++
		default:
			planned++
			missExtra = append(missExtra, st.us(rPlanFirst)-st.us(rEngine))
		}
	}
	put("core.plan_hit_ratio", ratio(hits, planned))
	put("core.plan_miss_us", median(missExtra))
	put("core.rows_scanned_per_op", mean(l.each(false, func(s *step) float64 { return float64(s.rows) })))
	put("core.allocs_per_op", allocs)
	put("object.render_bytes", mean(l.each(false, func(s *step) float64 { return float64(s.bytes) })))
	put("server.shed", float64(p.inst.db.Metrics().CounterValue("server.shed")-shed))
	put("server.conns_per_op", connsPerOp)

	// The write-side layers exist on served.mixed only; elsewhere they
	// read 0, which is what a workload without writes spends on them.
	refresh := l.each(true, func(s *step) float64 { return s.us(rReadFirst) - s.us(rReadSteady) })
	put("core.refresh_us", median(refresh))
	// served.mixed's p99_us sits inside the refresh mode, not at its
	// middle: with one or two refresh-paying operations in every ten, the
	// run's 99th percentile is about the refresh's 90th.
	sort.Float64s(refresh)
	p90 := 0.0
	if len(refresh) > 0 {
		p90 = refresh[len(refresh)*9/10]
	}
	put("core.refresh_p90_us", p90)
	put("core.freezes_per_write", mean(l.each(true, func(s *step) float64 { return float64(s.freezes) })))
	put("core.cow_clones_per_write", mean(l.each(true, func(s *step) float64 { return float64(s.clones) })))
	put("core.fixpoint_rounds", mean(l.each(true, func(s *step) float64 { return float64(s.rounds) })))
	// Whichever DB runs second finds the statement's working set warm, so
	// the walk alternates the order and the two biases cancel.
	var twinFirst, twinSecond []float64
	for i := range l.steps {
		if st := &l.steps[i]; st.write && st.twinFirst {
			twinFirst = append(twinFirst, st.us(rExec)-st.us(rExecTwin))
		} else if st.write {
			twinSecond = append(twinSecond, st.us(rExec)-st.us(rExecTwin))
		}
	}
	put("wal.append_self_us", (median(twinFirst)+median(twinSecond))/2)
	put("wal.bytes_per_op", mean(l.each(true, func(s *step) float64 { return float64(s.walBytes) })))
	put("wal.recover_s", median(p.recoverS))
	replayed := 0
	if p.inst.recovery != nil {
		replayed = p.inst.recovery.Replayed
	}
	put("wal.records_replayed", float64(replayed))

	res.Notes = map[string]any{
		"ladder_statements": len(l.steps),
		"spans":             len(l.spans),
		"one_client_p50_us": one,
		"two_client_p50_us": two,
		"shapes":            l.shapeTable(),
	}
	return res.finish(), nil
}

// shapeTable is the ladder by statement shape: how many the walk met and
// the median of each rung, so a share that looks wrong for the workload
// can be traced to the shape that causes it.
func (l *ladder) shapeTable() []string {
	byShape := map[string][]*step{}
	for i := range l.steps {
		byShape[l.steps[i].shape] = append(byShape[l.steps[i].shape], &l.steps[i])
	}
	shapes := make([]string, 0, len(byShape))
	for shape := range byShape {
		shapes = append(shapes, shape)
	}
	sort.Strings(shapes)
	rows := []string{fmt.Sprintf("%-18s %6s %10s %10s %10s %10s %10s %10s", "shape", "n", "loopback", "handler", "facade", "engine", "render", "exec")}
	for _, shape := range shapes {
		steps := byShape[shape]
		med := func(r rung) float64 {
			xs := make([]float64, len(steps))
			for i, st := range steps {
				xs[i] = st.us(r)
			}
			return median(xs)
		}
		rows = append(rows, fmt.Sprintf("%-18s %6d %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f",
			shape, len(steps), med(rLoopback), med(rHandler), med(rFacade), med(rEngine), med(rRender), med(rExec)))
	}
	return rows
}
