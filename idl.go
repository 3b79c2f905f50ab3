// Package idl is an implementation of IDL — the Interoperable Database
// Language of Krishnamurthy, Litwin & Kent (SIGMOD 1991) — a higher-order
// Horn-clause language that makes databases with schematic discrepancies
// interoperable: variables may range over data AND metadata (attribute,
// relation and database names), views may define a data-dependent number
// of relations, and update programs give views updatability.
//
// A DB owns a universe of databases (a nested tuple: database → relations
// → sets of tuples) and evaluates queries, update requests, view rules
// and update programs against it:
//
//	db := idl.Open()
//	db.Catalog().Insert("euter", "r",
//	    idl.Tup("date", idl.Date(1985, 3, 3), "stkCode", "hp", "clsPrice", 50))
//	res, err := db.Query("?.euter.r(.stkCode=S, .clsPrice>40)")
//	// res.Row(0).Get("S") == idl.Str("hp")
//
// See README.md for the language tour and DESIGN.md for how this
// implementation maps to the paper.
package idl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"idl/internal/catalog"
	"idl/internal/core"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/parser"
	"idl/internal/qlog"
	"idl/internal/schema"
	"idl/internal/storage"
	"idl/internal/wal"
)

// Re-exported value types. Objects are value-based: atoms, tuples of
// named objects, and sets (paper §3).
type (
	// Value is any IDL object.
	Value = object.Object
	// Tuple is an ordered collection of named objects.
	Tuple = object.Tuple
	// Set is a value-based collection of objects.
	Set = object.Set
	// Str is a string atom.
	Str = object.Str
	// Int is an integer atom.
	Int = object.Int
	// Float is a floating-point atom.
	Float = object.Float
	// Bool is a boolean atom.
	Bool = object.Bool
	// Null is the null atomic object; it satisfies no atomic expression.
	Null = object.Null
	// DateValue is a calendar-date atom.
	DateValue = object.Date
)

// Result is a query answer: the set of grounding substitutions for the
// query's free variables.
type Result = core.Answer

// Row is one answer substitution: a read-only positional view over the
// result's Vars (At), with access by variable name (Get).
type Row = core.Row

// ExecInfo tallies what an update request changed.
type ExecInfo = core.ExecResult

// Stats counts evaluator work (scans, index probes, enumerations).
type Stats = core.Stats

// MVCCStats reports the engine's snapshot version chain: live versions,
// pinned readers, retained bytes, and copy-on-write / collection
// counters.
type MVCCStats = core.MVCCStats

// Options tune the engine (index use, semi-naive evaluation, iteration
// bound).
type Options = core.Options

// Program describes a registered update program.
type Program = core.Program

// Date builds a date value; two-digit years are interpreted as 19xx the
// way the paper writes them.
func Date(year, month, day int) DateValue { return object.NewDate(year, month, day) }

// Tup builds a tuple from alternating attribute/value pairs; values may
// be Go literals (bool, int, float64, string) or Values.
func Tup(pairs ...any) *Tuple { return object.TupleOf(pairs...) }

// RowOf builds a Row from alternating variable-name/value pairs (values
// converted as by Tup), for Result.Contains.
func RowOf(pairs ...any) Row { return core.RowOf(pairs...) }

// SetOf builds a set from values.
func SetOf(values ...any) *Set { return object.SetOf(values...) }

// Schema constraint types (the paper's §8 metadata extension: types,
// keys, referential integrity).
type (
	// SchemaRegistry holds relation constraint declarations.
	SchemaRegistry = schema.Registry
	// RelDecl declares constraints for one relation.
	RelDecl = schema.RelDecl
	// AttrDecl declares one attribute's type and nullability.
	AttrDecl = schema.AttrDecl
	// ForeignKey declares referential integrity across relations (and
	// databases).
	ForeignKey = schema.ForeignKey
)

// Attribute type constants for AttrDecl.
const (
	AnyType    = schema.AnyType
	IntType    = schema.IntType
	FloatType  = schema.FloatType
	NumberType = schema.NumberType
	StringType = schema.StringType
	DateType   = schema.DateType
	BoolType   = schema.BoolType
)

// DB is a universe of databases with an IDL engine over it. All methods
// are safe for concurrent use.
type DB struct {
	mu     sync.Mutex
	engine *core.Engine
	cat    *catalog.Catalog
	schema *schema.Registry

	// settings is what every statement reads of the facade's
	// configuration — the metrics registry (obs.go), tracer, digest store
	// (insights.go), parallelism, failure mode, whether members are
	// mounted — published as one immutable value (see statement.go).
	settings atomic.Pointer[settings]

	// shapes is the query front end's shape table (DESIGN.md §20):
	// QueryCtx lexes and binds a statement whose shape it holds instead
	// of parsing it.
	shapes parser.Shapes

	lastReport    *federation.Report
	snapshotBytes int64 // size of the last snapshot saved or loaded

	// Temporal observability (see qlog.go): the flight recorder is on
	// from Open — a lock-free ring of the last events — and grows an
	// event log / workload journal when attached.
	rec *qlog.Recorder

	// Durability (see durability.go): DBs opened with OpenWAL log every
	// committed mutation here; nil means no WAL. walCommit makes each
	// logged mutation's apply and append one critical section (see
	// DB.commit), so the log's record order is the apply order.
	wal           *wal.Log
	walCommit     sync.Mutex
	walDurability Durability // fixed at OpenWAL

	// Trace identity (see trace.go): traceBase is a per-process random
	// base XORed with a golden-ratio-stepped sequence, so trace IDs are
	// unique across restarts but cheap to mint.
	traceBase uint64
	traceSeq  atomic.Uint64
}

// DefaultOptions returns the production engine defaults — the options
// Open uses. Start from these when customizing (e.g. Options.BestEffort
// for federated degradation).
func DefaultOptions() Options { return core.DefaultOptions() }

// Open creates an empty universe with default engine options.
func Open() *DB { return OpenWithOptions(DefaultOptions()) }

// OpenWithOptions creates an empty universe with explicit options.
func OpenWithOptions(opts Options) *DB {
	engine := core.NewEngineWithOptions(opts)
	cat := catalog.New(engine.Base(), engine.Invalidate)
	// Federated member snapshots install through the engine mutex so
	// source syncs stay coherent with concurrent queries.
	cat.SetApplier(engine.UpdateBase)
	// The catalog epoch is the engine's mutation counter — the version
	// key of the plan cache.
	cat.SetEpochSource(engine.Epoch)
	// Worker parallelism extends to member syncs: fetches overlap up to
	// the same degree the evaluator partitions scans.
	cat.SetFetchConcurrency(opts.Workers)
	db := &DB{
		engine:    engine,
		cat:       cat,
		rec:       qlog.NewRecorder(qlog.DefaultRingSize),
		traceBase: newTraceBase(),
	}
	db.settings.Store(&settings{workers: opts.Workers, bestEffort: opts.BestEffort})
	// Member fetches join the caller's trace when tracing is enabled.
	cat.SetTracer(db.Tracer)
	return db
}

// OpenSnapshot loads a universe previously written by Save.
func OpenSnapshot(path string) (*DB, error) {
	u, size, err := storage.LoadFileSized(path)
	if err != nil {
		return nil, err
	}
	db := Open()
	u.Each(func(name string, v Value) bool {
		db.engine.Base().Put(name, v)
		return true
	})
	db.engine.Invalidate()
	db.snapshotBytes = size
	return db, nil
}

// Save writes the base universe (not derived views) to path atomically.
func (db *DB) Save(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	reg := db.metricsRef()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	var size int64
	var err error
	// Read the base under the engine mutex: Exec and catalog writes
	// mutate it there, and a half-applied request must not be serialised.
	db.engine.UpdateBase(func(base *Tuple) bool {
		size, err = storage.SaveFileSized(path, base)
		return false
	})
	if err == nil {
		db.snapshotBytes = size
	}
	if reg != nil {
		reg.Counter("storage.save.count").Inc()
		if err != nil {
			reg.Counter("storage.save.errors").Inc()
		} else {
			reg.Gauge("storage.snapshot_bytes").Set(size)
		}
		reg.Histogram("storage.save.latency").Observe(time.Since(start))
	}
	return err
}

// Catalog exposes DDL and metadata introspection.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Engine exposes the underlying evaluation engine for advanced use
// (statistics, AST-level queries).
func (db *DB) Engine() *core.Engine { return db.engine }

// Schema returns the constraint registry, installing integrity
// enforcement on first use: every subsequent mutating request is
// validated against the declarations and rolled back on violation. Bulk
// loads through the Catalog are not auto-validated; call ValidateSchema
// after loading.
func (db *DB) Schema() *SchemaRegistry {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.schema == nil {
		db.schema = schema.NewRegistry()
		db.engine.SetValidator(db.schema.Validate)
	}
	return db.schema
}

// ValidateSchema checks the current base universe against all schema
// declarations (nil if none are declared).
func (db *DB) ValidateSchema() error {
	db.mu.Lock()
	reg := db.schema
	db.mu.Unlock()
	if reg == nil {
		return nil
	}
	var err error
	db.engine.UpdateBase(func(base *Tuple) bool {
		err = reg.Validate(base)
		return false
	})
	return err
}

// Explain returns the engine's evaluation plan for a query: scheduled
// conjunct order, access paths (index/scan), and variable flow. With
// federated members mounted, a best-effort sync runs first so conjuncts
// over unreachable members are marked skipped.
func (db *DB) Explain(src string) (string, error) {
	q, err := parser.ParseQuery(src)
	if err != nil {
		return "", err
	}
	if _, err := db.syncSources(context.Background(), true); err != nil {
		return "", err
	}
	plan, err := db.engine.ExplainQuery(q)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// Programs lists registered update programs.
func (db *DB) Programs() []*Program { return db.engine.Programs() }

// Views lists registered view rules (as source strings).
func (db *DB) Views() []string {
	rules := db.engine.Rules()
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.String()
	}
	return out
}

// Stats returns evaluator counters.
func (db *DB) Stats() Stats { return db.engine.Stats() }

// MVCCStats snapshots the engine's version-chain state: how many
// snapshot versions are retained, which epochs readers have pinned, the
// estimated retained footprint, and the freeze / collect / copy-on-write
// counters. Native counters — available without a metrics registry.
func (db *DB) MVCCStats() MVCCStats { return db.engine.MVCCStats() }

// SetWorkers sets the degree of intra-operation parallelism (see
// Options.Workers): n > 1 partitions large scans across n workers,
// evaluates independent view rules concurrently, and overlaps federated
// member fetches — with answers byte-identical to sequential evaluation.
// 0 and 1 evaluate sequentially; negative values clamp to 0. Safe to
// call at any time, including between queries.
func (db *DB) SetWorkers(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = 0
	}
	db.engine.SetWorkers(n)
	db.cat.SetFetchConcurrency(n)
	db.configure(func(s *settings) { s.workers = n })
}

// Workers returns the configured parallelism degree.
func (db *DB) Workers() int { return db.settings.Load().workers }
