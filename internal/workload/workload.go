// Package workload opens IDL sessions over reproducible environments and
// replays captured .idlog journals against them.
//
// A workload Config fully describes how to rebuild the environment a
// journal was recorded in: the demo stock universe's shape and seed,
// the federation failure mode, and — for chaos runs — the fault
// injector's seed and the resilience stack's tuning. Config round-trips
// through the journal header's free-form metadata (Meta / FromMeta), so
// idlload -check can reconstruct the original run from the journal file
// alone and replay it deterministically. Open is the one way the
// binaries open a session: in memory, over a snapshot, or over a WAL
// directory.
package workload

import (
	"fmt"
	"strconv"
	"time"

	"idl"
	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/stocks"
)

// Config describes a reproducible workload environment.
type Config struct {
	// Demo preloads the paper's three stock databases (euter / chwab /
	// ource) from a deterministic generated dataset.
	Demo bool
	// Stocks, Days and StockSeed shape the generated dataset.
	Stocks    int
	Days      int
	StockSeed uint64
	// Discrepancies and NameConflict forward to stocks.Config: value
	// discrepancies between members and vendor-coded names (§6).
	Discrepancies int
	NameConflict  bool

	// BestEffort selects the federation failure mode: degrade gracefully
	// (true) or fail fast (false).
	BestEffort bool
	// ChaosSeed, when nonzero, mounts the demo databases as federated
	// members behind a seeded fault injector instead of populating them
	// in-process. The same seed over the same statement sequence injects
	// the same fault schedule — chaos runs replay deterministically.
	ChaosSeed uint64
	// Resilience-stack tuning for chaos mode.
	Timeout          time.Duration
	Retries          int
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Workers sets the evaluation parallelism degree (Options.Workers).
	// Parallel answers are byte-identical to sequential ones, so journals
	// captured under any worker count replay interchangeably; the value
	// still round-trips through journal metadata so a replay reconstructs
	// the recorded environment faithfully.
	Workers int
}

// Default is the standard demo workload: the universe cmd/idl -demo
// loads, fail-fast federation, production resilience tuning.
func Default() Config {
	fed := federation.DefaultConfig()
	return Config{
		Demo:             true,
		Stocks:           5,
		Days:             5,
		StockSeed:        1991,
		Timeout:          fed.Timeout,
		Retries:          fed.Retries,
		BreakerThreshold: fed.BreakerThreshold,
		BreakerCooldown:  fed.BreakerCooldown,
	}
}

// chaosMembers is the fixed order members are mounted in; each gets a
// distinct injector schedule derived from ChaosSeed.
var chaosMembers = []string{"chwab", "euter", "ource"}

// memberSeed spreads ChaosSeed into per-member injector seeds.
func memberSeed(chaosSeed uint64, i int) uint64 {
	return chaosSeed + uint64(i)*7919
}

// injectorFor is the chaos fault profile: mostly healthy, with errors,
// slow responses and truncated snapshots mixed in deterministically.
func injectorFor(chaosSeed uint64, i int) federation.InjectorConfig {
	return federation.InjectorConfig{
		Seed:          memberSeed(chaosSeed, i),
		ErrorRate:     0.2,
		SlowRate:      0.1,
		TruncateRate:  0.05,
		Latency:       5 * time.Millisecond,
		TruncateAfter: 1,
	}
}

// Store says where a session opened by Open keeps its state. The zero
// value is a fresh in-memory session.
type Store struct {
	// Snapshot loads the base universe from a file DB.Save wrote, before
	// the workload applies. The file must exist.
	Snapshot string
	// WAL makes the session durable: committed mutations log to this
	// directory, and whatever a previous session left there recovers.
	WAL string
	// Durability is the WAL's fsync policy: sync (the default), group or
	// off.
	Durability string
}

// Open opens a session for cfg over st. The engine options carry cfg's
// Workers and BestEffort. Over a WAL the in-process demo universe is the
// log's Bootstrap — deterministic base environment, installed before the
// tail replays and skipped when a checkpoint already carries it — while
// chaos members mount after recovery like any session's, their snapshot
// installs logged on sync. The recovery report is nil without a WAL.
func Open(cfg Config, st Store) (*idl.DB, *idl.RecoveryReport, error) {
	opts := idl.DefaultOptions()
	opts.BestEffort = cfg.BestEffort
	opts.Workers = cfg.Workers
	bootstrap := st.WAL != "" && cfg.ChaosSeed == 0
	var db *idl.DB
	var report *idl.RecoveryReport
	var err error
	switch {
	case st.WAL != "":
		walOpts := idl.WALOptions{Engine: &opts}
		switch st.Durability {
		case "sync", "":
			walOpts.Durability = idl.DurabilitySync
		case "group":
			walOpts.Durability = idl.DurabilityGroup
		case "off":
			walOpts.Durability = idl.DurabilityOff
		default:
			return nil, nil, fmt.Errorf("unknown -durability %q (want sync, group, or off)", st.Durability)
		}
		if bootstrap {
			walOpts.Bootstrap = func(db *idl.DB) error { return Apply(db, cfg) }
		}
		db, report, err = idl.OpenWAL(st.WAL, walOpts)
	case st.Snapshot != "":
		// OpenSnapshot opens with default engine options: the workers
		// are set here, and a snapshot session fails fast.
		if db, err = idl.OpenSnapshot(st.Snapshot); err == nil {
			db.SetWorkers(cfg.Workers)
		}
	default:
		db = idl.OpenWithOptions(opts)
	}
	if err == nil && !bootstrap {
		err = Apply(db, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return db, report, nil
}

// Apply populates db per cfg: nothing when Demo is off, the generated
// stock universe in-process when ChaosSeed is zero, or the same universe
// mounted as fault-injected federated members when it is set.
func Apply(db *idl.DB, cfg Config) error {
	if !cfg.Demo {
		return nil
	}
	scfg := stocks.Config{
		Stocks:        cfg.Stocks,
		Days:          cfg.Days,
		Seed:          cfg.StockSeed,
		Discrepancies: cfg.Discrepancies,
		NameConflict:  cfg.NameConflict,
	}
	if cfg.ChaosSeed == 0 {
		ds := stocks.Generate(scfg)
		ds.Populate(db.Engine().Base())
		db.Engine().Invalidate()
		return nil
	}
	u, _ := stocks.Universe(scfg)
	fed := federation.DefaultConfig()
	fed.Timeout = cfg.Timeout
	fed.Retries = cfg.Retries
	fed.BreakerThreshold = cfg.BreakerThreshold
	fed.BreakerCooldown = cfg.BreakerCooldown
	fed.Seed = cfg.ChaosSeed
	for i, name := range chaosMembers {
		v, _ := u.Get(name)
		member, ok := v.(*object.Tuple)
		if !ok {
			return fmt.Errorf("workload: demo database %s missing", name)
		}
		injected := federation.Inject(federation.NewMemorySource(name, member), injectorFor(cfg.ChaosSeed, i))
		if err := db.Mount(name, idl.Resilient(injected, fed)); err != nil {
			return err
		}
	}
	return nil
}

// Journal metadata keys for Config round-tripping.
const (
	metaDemo             = "demo"
	metaStocks           = "stocks"
	metaDays             = "days"
	metaStockSeed        = "stock_seed"
	metaDiscrepancies    = "discrepancies"
	metaNameConflict     = "name_conflict"
	metaBestEffort       = "best_effort"
	metaChaosSeed        = "chaos_seed"
	metaTimeout          = "timeout"
	metaRetries          = "retries"
	metaBreakerThreshold = "breaker_threshold"
	metaBreakerCooldown  = "breaker_cooldown"
	metaWorkers          = "workers"
)

// Meta renders cfg as journal-header metadata. FromMeta inverts it.
func (cfg Config) Meta() map[string]string {
	return map[string]string{
		metaDemo:             strconv.FormatBool(cfg.Demo),
		metaStocks:           strconv.Itoa(cfg.Stocks),
		metaDays:             strconv.Itoa(cfg.Days),
		metaStockSeed:        strconv.FormatUint(cfg.StockSeed, 10),
		metaDiscrepancies:    strconv.Itoa(cfg.Discrepancies),
		metaNameConflict:     strconv.FormatBool(cfg.NameConflict),
		metaBestEffort:       strconv.FormatBool(cfg.BestEffort),
		metaChaosSeed:        strconv.FormatUint(cfg.ChaosSeed, 10),
		metaTimeout:          cfg.Timeout.String(),
		metaRetries:          strconv.Itoa(cfg.Retries),
		metaBreakerThreshold: strconv.Itoa(cfg.BreakerThreshold),
		metaBreakerCooldown:  cfg.BreakerCooldown.String(),
		metaWorkers:          strconv.Itoa(cfg.Workers),
	}
}

// FromMeta rebuilds a Config from journal-header metadata. Missing keys
// keep their zero value (an absent environment replays onto an empty
// DB); present keys must parse. Unknown keys are ignored for forward
// compatibility.
func FromMeta(meta map[string]string) (Config, error) {
	var cfg Config
	var err error
	get := func(key string, parse func(string) error) {
		if err != nil {
			return
		}
		s, ok := meta[key]
		if !ok {
			return
		}
		if perr := parse(s); perr != nil {
			err = fmt.Errorf("workload: meta %s=%q: %w", key, s, perr)
		}
	}
	parseBool := func(dst *bool) func(string) error {
		return func(s string) error { v, e := strconv.ParseBool(s); *dst = v; return e }
	}
	parseInt := func(dst *int) func(string) error {
		return func(s string) error { v, e := strconv.Atoi(s); *dst = v; return e }
	}
	parseUint := func(dst *uint64) func(string) error {
		return func(s string) error { v, e := strconv.ParseUint(s, 10, 64); *dst = v; return e }
	}
	parseDur := func(dst *time.Duration) func(string) error {
		return func(s string) error { v, e := time.ParseDuration(s); *dst = v; return e }
	}
	get(metaDemo, parseBool(&cfg.Demo))
	get(metaStocks, parseInt(&cfg.Stocks))
	get(metaDays, parseInt(&cfg.Days))
	get(metaStockSeed, parseUint(&cfg.StockSeed))
	get(metaDiscrepancies, parseInt(&cfg.Discrepancies))
	get(metaNameConflict, parseBool(&cfg.NameConflict))
	get(metaBestEffort, parseBool(&cfg.BestEffort))
	get(metaChaosSeed, parseUint(&cfg.ChaosSeed))
	get(metaTimeout, parseDur(&cfg.Timeout))
	get(metaRetries, parseInt(&cfg.Retries))
	get(metaBreakerThreshold, parseInt(&cfg.BreakerThreshold))
	get(metaBreakerCooldown, parseDur(&cfg.BreakerCooldown))
	get(metaWorkers, parseInt(&cfg.Workers))
	return cfg, err
}
