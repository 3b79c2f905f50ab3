package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// The generator owns every input the benchmark feeds the program: the
// price walk, the IDL bootstrap script and the statement pools. All of
// it is a pure function of the seed, and the program under test sees
// nothing but the generated text (DB.LoadCtx, DB.QueryCtx, the wire).
//
// Only the prices and the pool draws depend on the seed. Stock names,
// dates, dataset sizes, pool sizes and the layout mix are fixed, and
// every threshold is a quantile of the generated prices, so two seeds
// give different inputs of the same cost: the spread between seeds is
// then the machine's, not the generator's.

// rng is splitmix64: tiny, seedable, and — unlike math/rand — the same
// stream under every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	// Mix the stream name in so the walk, the pools and each client's
	// script draw from independent sequences of one seed.
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001b3
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Size is a dataset's shape: Stocks × Days facts per layout.
type Size struct{ Stocks, Days int }

var (
	// DLarge is the read-only workloads' dataset: 1 800 facts per layout.
	DLarge = Size{Stocks: 30, Days: 60}
	// DSmall is served.mixed's dataset: 120 facts per layout, small
	// enough that a view refresh after every write stays in milliseconds.
	DSmall = Size{Stocks: 8, Days: 15}
)

// Dataset is one generated stock universe: the same facts, to be laid
// out as data (euter), attribute names (chwab) and relation names (ource).
type Dataset struct {
	Stocks []string // bareword stock codes
	Dates  []string // IDL date literals, m/d/yy
	Price  [][]int  // [stock][day]
}

// NewDataset walks one price series per stock from the seed.
func NewDataset(seed uint64, size Size) *Dataset {
	r := newRNG(seed, "walk")
	d := &Dataset{}
	day := time.Date(1985, time.January, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < size.Days; i++ {
		t := day.AddDate(0, 0, i)
		d.Dates = append(d.Dates, fmt.Sprintf("%d/%d/%02d", int(t.Month()), t.Day(), t.Year()%100))
	}
	for s := 0; s < size.Stocks; s++ {
		d.Stocks = append(d.Stocks, fmt.Sprintf("stk%02d", s+1))
		p := 60 + r.intn(81)
		series := make([]int, size.Days)
		for i := range series {
			p += r.intn(7) - 3
			if p < 5 {
				p = 5
			}
			series[i] = p
		}
		d.Price = append(d.Price, series)
	}
	return d
}

// Facts is the number of (stock, date, price) facts per layout.
func (d *Dataset) Facts() int { return len(d.Stocks) * len(d.Dates) }

// quantile returns the price below which share q of all facts lie.
func (d *Dataset) quantile(q float64) int {
	var all []int
	for _, series := range d.Price {
		all = append(all, series...)
	}
	sort.Ints(all)
	return all[int(q*float64(len(all)-1))]
}

// The paper's artifacts, written out here rather than imported from
// internal/stocks: the benchmark owns its inputs, so a later change to
// that package cannot silently change what is measured.
var (
	rulesUnified = []string{
		".dbI.p+(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
		".dbI.p+(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
	}
	rulesCustomized = []string{
		".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbC.r+(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
		".dbO.S+(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
	}
	programs = []string{
		".dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S,.date=D,.clsPrice=P)",
		".dbU.insStk(.stk=S, .date=D, .price=P) -> .chwab.r(.date=D, +.S=P)",
		".dbU.insStk(.stk=S, .date=D, .price=P) -> .ource.S+(.date=D,.clsPrice=P)",
		".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)",
		".dbU.delStk(.stk=S, .date=D) -> .chwab.r(.date=D, .S-=X)",
		".dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)",
		".dbI.p+(.date=D, .stk=S, .price=P) -> .dbU.insStk(.stk=S, .date=D, .price=P)",
		".dbI.p-(.date=D, .stk=S, .price=P) -> .dbU.delStk(.stk=S, .date=D)",
		".dbO.S+(.date=D, .clsPrice=P) -> .dbI.p+(.date=D, .stk=S, .price=P)",
		".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) -> .dbI.p+(.date=D, .stk=S, .price=P)",
		".dbC.r+(.date=D, .S=P) -> .dbI.p+(.date=D, .stk=S, .price=P)",
	}
)

// Script renders the bootstrap: the three databases, the same facts in
// all three layouts, then the §6 view rules and the §7 programs. It is
// the only way the benchmark populates a DB.
func (d *Dataset) Script() string {
	var b strings.Builder
	b.WriteString("?+.euter, +.chwab, +.ource;\n")
	for di, date := range d.Dates {
		fmt.Fprintf(&b, "?.chwab.r+(.date=%s", date)
		for si, stk := range d.Stocks {
			fmt.Fprintf(&b, ", .%s=%d", stk, d.Price[si][di])
		}
		b.WriteString(");\n")
	}
	for si, stk := range d.Stocks {
		for di, date := range d.Dates {
			p := d.Price[si][di]
			fmt.Fprintf(&b, "?.euter.r+(.date=%s, .stkCode=%s, .clsPrice=%d);\n", date, stk, p)
			fmt.Fprintf(&b, "?.ource.%s+(.date=%s, .clsPrice=%d);\n", stk, date, p)
		}
	}
	for _, group := range [][]string{rulesUnified, rulesCustomized, programs} {
		for _, s := range group {
			b.WriteString(s)
			b.WriteString(";\n")
		}
	}
	return b.String()
}

// Stmt is one pool statement.
type Stmt struct {
	Text string
	// Shape names the statement's form ("point.euter", "scan.join");
	// the ladder groups its medians by shape.
	Shape string
	// Intent, when set, names the intention the statement expresses.
	// Statements sharing an Intent must give the same answer after
	// projection — the paper's claim, checked as a metamorphic law.
	Intent string
	// Want, when set, is the answer the generator itself predicts.
	Want string
}

// layouts are the three schematically discrepant renderings of a stock.
var layouts = []string{"euter", "chwab", "ource"}

// pointStmt looks one fact up by stock and date in one base layout.
func (d *Dataset) pointStmt(layout string, si, di int) Stmt {
	stk, date := d.Stocks[si], d.Dates[di]
	var text string
	switch layout {
	case "euter":
		text = fmt.Sprintf("?.euter.r(.stkCode=%s, .date=%s, .clsPrice=P)", stk, date)
	case "chwab":
		text = fmt.Sprintf("?.chwab.r(.date=%s, .%s=P)", date, stk)
	case "ource":
		text = fmt.Sprintf("?.ource.%s(.date=%s, .clsPrice=P)", stk, date)
	}
	return Stmt{
		Text:   text,
		Shape:  "point." + layout,
		Intent: fmt.Sprintf("price(%s,%s)", stk, date),
		Want:   fmt.Sprintf("P\n%d", d.Price[si][di]),
	}
}

// PointPool returns n distinct point lookups: n/3 seeded (stock, date)
// intentions, each asked in all three layouts. Ranks interleave the
// layouts, so a skewed draw over ranks loads each layout alike.
func (d *Dataset) PointPool(seed uint64, n int) []Stmt {
	cells := newRNG(seed, "points").perm(d.Facts())
	pool := make([]Stmt, 0, n+len(layouts))
	for i := 0; len(pool) < n; i++ {
		si, di := cells[i]/len(d.Dates), cells[i]%len(d.Dates)
		for _, layout := range layouts {
			pool = append(pool, d.pointStmt(layout, si, di))
		}
	}
	return pool[:n]
}

// ScanPool returns the paper's heavy shapes over the whole dataset, and
// the partner statements that the metamorphic check — but not the timed
// run — evaluates beside them.
func (d *Dataset) ScanPool() (pool, partners []Stmt) {
	// Thresholds are price quantiles, so the answers' sizes do not
	// depend on the seed.
	hi, mid := d.quantile(0.9), d.quantile(0.5)
	above := fmt.Sprintf("above(%d)", hi)
	rows := fmt.Sprintf("rows-above(%d)", mid)
	pool = []Stmt{
		{Shape: "scan.above.euter", Intent: above, Text: fmt.Sprintf("?.euter.r(.stkCode=S, .clsPrice>%d)", hi)},
		{Shape: "scan.above.chwab", Intent: above, Text: fmt.Sprintf("?.chwab.r(.S>%d)", hi)},
		{Shape: "scan.above.ource", Intent: above, Text: fmt.Sprintf("?.ource.S(.clsPrice>%d)", hi)},
		{Shape: "scan.join", Intent: "all", Text: "?.chwab.r(.date=D, .S=P), .ource.S(.date=D, .clsPrice=P)"},
		{Shape: "scan.highest", Intent: "highest", Text: "?.euter.r(.date=D, .stkCode=S, .clsPrice=P), .euter.r~(.date=D, .clsPrice>P)"},
		{Shape: "scan.unified", Intent: "all", Text: "?.dbI.p(.date=D, .stk=S, .price=P)"},
		{Shape: "scan.dbO", Intent: rows, Text: fmt.Sprintf("?.dbO.S(.date=D, .clsPrice>%d)", mid)},
	}
	partners = []Stmt{
		{Shape: "scan.highest.ource", Intent: "highest", Text: "?.ource.S(.date=D, .clsPrice=P), ~.ource.S2(.date=D, .clsPrice>P)"},
		{Shape: "scan.highest.dbI", Intent: "highest", Text: "?.dbI.p(.date=D, .stk=S, .price=P), .dbI.p~(.date=D, .price>P)"},
		{Shape: "scan.all.euter", Intent: "all", Text: "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)"},
		{Shape: "scan.all.dbE", Intent: "all", Text: "?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)"},
		{Shape: "scan.all.dbC", Intent: "all", Text: "?.dbC.r(.date=D, .S=P), S != date"},
		{Shape: "scan.rows.ource", Intent: rows, Text: fmt.Sprintf("?.ource.S(.date=D, .clsPrice>%d)", mid)},
		{Shape: "scan.rows.euter", Intent: rows, Text: fmt.Sprintf("?.euter.r(.stkCode=S, .date=D, .clsPrice>%d)", mid)},
	}
	return pool, partners
}

// zipfDraws returns n draws over [0, size) with P(k) ∝ 1/(k+1)^s, by
// inverting the cumulative distribution.
func zipfDraws(r *rng, s float64, size, n int) []uint16 {
	cdf := make([]float64, size)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	draws := make([]uint16, n)
	for i := range draws {
		draws[i] = uint16(sort.SearchFloat64s(cdf, r.float()*sum))
	}
	return draws
}

// Op is one step of a client's script: a read whose answer must equal
// Stmt.Want, or a write that must be acknowledged.
type Op struct {
	Stmt  Stmt
	Write bool
}

// Cell is one (stock, date) slot of the unified view.
type Cell struct{ Stock, Date string }

const (
	// mixedPrivateStocks is how many stock names each client owns. A
	// client writes only its own names, so its reads of them are
	// deterministic whatever the other client does.
	mixedPrivateStocks = 4
	// mixedLive is how many private quotes a client keeps alive: every
	// insert is followed, one write later, by the delete of the quote
	// inserted mixedLive inserts ago, so the dataset — and with it the
	// cost of a view refresh — stays the same size through the run.
	mixedLive = 20
	// mixedWriteEvery makes 1 op in 10 a write.
	mixedWriteEvery = 10
)

// views are the four read paths of served.mixed: the unified view and
// the three customised views of Figure 1.
var views = []string{"dbI", "dbE", "dbC", "dbO"}

// viewRead reads one cell's price through one view.
func viewRead(view string, c Cell) string {
	switch view {
	case "dbI":
		return fmt.Sprintf("?.dbI.p(.stk=%s, .date=%s, .price=P)", c.Stock, c.Date)
	case "dbE":
		return fmt.Sprintf("?.dbE.r(.stkCode=%s, .date=%s, .clsPrice=P)", c.Stock, c.Date)
	case "dbC":
		return fmt.Sprintf("?.dbC.r(.date=%s, .%s=P)", c.Date, c.Stock)
	default:
		return fmt.Sprintf("?.dbO.%s(.date=%s, .clsPrice=P)", c.Stock, c.Date)
	}
}

// ViewReads returns point reads of n seeded base facts, each through all
// four views: the same intention, so the answers must agree.
func (d *Dataset) ViewReads(seed uint64, n int) []Stmt {
	var out []Stmt
	for _, cell := range newRNG(seed, "viewreads").perm(d.Facts())[:n] {
		si, di := cell/len(d.Dates), cell%len(d.Dates)
		c := Cell{Stock: d.Stocks[si], Date: d.Dates[di]}
		for _, v := range views {
			out = append(out, Stmt{
				Text:   viewRead(v, c),
				Shape:  "read." + v,
				Intent: fmt.Sprintf("price(%s,%s)", c.Stock, c.Date),
				Want:   fmt.Sprintf("P\n%d", d.Price[si][di]),
			})
		}
	}
	return out
}

// MixedScript generates one client's endless script, step by step. The
// client's model of its own acked writes supplies every read's expected
// answer, so the script is its own oracle.
type MixedScript struct {
	d      *Dataset
	r      *rng
	client int
	step   int
	writes int
	cells  []Cell
	// Live is the client's model: its private quotes that should be in
	// the unified view now.
	Live map[Cell]int
	last Cell // the cell the latest write touched
}

// NewMixedScript starts client c's script.
func (d *Dataset) NewMixedScript(seed uint64, c int) *MixedScript {
	m := &MixedScript{d: d, r: newRNG(seed, fmt.Sprintf("mixed%d", c)), client: c, Live: map[Cell]int{}}
	for k := 0; k < mixedPrivateStocks; k++ {
		for _, date := range d.Dates {
			m.cells = append(m.cells, Cell{Stock: fmt.Sprintf("c%dk%d", c, k), Date: date})
		}
	}
	return m
}

// NextWrite returns the client's next write and applies it to the model.
// The first mixedLive writes insert; after that inserts alternate with
// deletes of the oldest live quote, walking the client's cells in a ring.
func (m *MixedScript) NextWrite() Op {
	w := m.writes
	m.writes++
	n := len(m.cells)
	k := w - mixedLive
	if k < 0 || k%2 == 0 {
		c := m.cells[w%n]
		if k >= 0 {
			c = m.cells[(mixedLive+k/2)%n]
		}
		price := 10 + m.r.intn(190)
		m.Live[c] = price
		m.last = c
		return Op{Write: true, Stmt: Stmt{
			Shape: "exec.insStk",
			Text:  fmt.Sprintf("?.dbU.insStk(.stk=%s, .date=%s, .price=%d)", c.Stock, c.Date, price),
		}}
	}
	c := m.cells[(k/2)%n]
	delete(m.Live, c)
	m.last = c
	return Op{Write: true, Stmt: Stmt{
		Shape: "exec.delStk",
		Text:  fmt.Sprintf("?.dbU.delStk(.stk=%s, .date=%s)", c.Stock, c.Date),
	}}
}

// Next returns the script's next step: a write every mixedWriteEvery
// steps, otherwise a point read through one of the four views. The read
// right after a write reads the written cell back (read-your-writes);
// the others alternate between the client's live quotes and base facts.
func (m *MixedScript) Next() Op {
	i := m.step
	m.step++
	if i%mixedWriteEvery == 0 {
		return m.NextWrite()
	}
	view := views[i%len(views)]
	var c Cell
	want := "P"
	switch {
	case i%mixedWriteEvery == 1:
		c = m.last
		if p, ok := m.Live[c]; ok {
			want = fmt.Sprintf("P\n%d", p)
		}
	case i%2 == 0:
		// A base fact: never written by any client.
		si, di := m.r.intn(len(m.d.Stocks)), m.r.intn(len(m.d.Dates))
		c = Cell{Stock: m.d.Stocks[si], Date: m.d.Dates[di]}
		want = fmt.Sprintf("P\n%d", m.d.Price[si][di])
	default:
		// One of the client's own cells, live or not.
		c = m.cells[m.r.intn(len(m.cells))]
		if p, ok := m.Live[c]; ok {
			want = fmt.Sprintf("P\n%d", p)
		}
	}
	return Op{Stmt: Stmt{Shape: "read." + view, Text: viewRead(view, c), Want: want}}
}
