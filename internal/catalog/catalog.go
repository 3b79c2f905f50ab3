// Package catalog manages the shape of a universe of databases: creating
// and dropping databases and relations, bulk-loading tuples, and
// introspecting metadata (the names that IDL's higher-order variables
// range over).
//
// The catalog operates on the same object.Tuple universe the core engine
// evaluates against; it is the API-level DDL counterpart to the
// language-level metadata updates of paper §5 (which can also create and
// destroy relations and attributes).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"idl/internal/federation"
	"idl/internal/object"
	"idl/internal/obs"
)

// Catalog wraps a universe tuple with DDL and introspection operations.
// It does not serialize access; the owner (usually an idl.DB) does.
type Catalog struct {
	universe *object.Tuple
	onChange func()        // invoked after every mutation (engine invalidation)
	epoch    func() uint64 // reads the owner's catalog epoch counter

	// Federated members (see sources.go): name -> source, plus the hook
	// through which snapshot installs reach the universe coherently with
	// a concurrently evaluating engine.
	sources map[string]federation.Source
	apply   func(func(base *object.Tuple) bool)

	// fetchConc caps how many member fetches SyncSources runs
	// concurrently; 0 and 1 fetch sequentially (see SetFetchConcurrency).
	fetchConc int

	// Durability hooks (see SetCommitLog): the owner's write-ahead log
	// observes committed DDL and member-snapshot installs. Every mutator
	// holds commitLock from its apply through its last log append, so the
	// log's record order is the apply order; the loggers are nil-safe.
	commitLock sync.Locker
	logMut     func(op, db, rel string, tuples []*object.Tuple) error
	logSnap    func(name string, snap *object.Tuple) error

	// Sync metrics (see SetMetrics); all nil-safe, so an unconfigured
	// catalog pays nothing.
	syncCount    *obs.Counter
	syncFailures *obs.Counter
	syncLatency  *obs.Histogram
	membersG     *obs.Gauge
	unavailableG *obs.Gauge
	metrics      *obs.Registry

	// tracer reads the owner's current span tracer (see SetTracer); when
	// it returns non-nil, member fetches emit federation.fetch root spans
	// annotated with the caller's trace ID.
	tracer func() *obs.Tracer
}

// New wraps a universe tuple. onChange (optional) runs after each
// mutation — wire it to the engine's Invalidate.
func New(universe *object.Tuple, onChange func()) *Catalog {
	if universe == nil {
		universe = object.NewTuple()
	}
	return &Catalog{universe: universe, onChange: onChange, commitLock: new(sync.Mutex)}
}

// Universe returns the underlying universe tuple.
func (c *Catalog) Universe() *object.Tuple { return c.universe }

// SetEpochSource wires the catalog-epoch reader (the engine's epoch
// counter, bumped on every universe mutation). Epoch versions the plan
// cache: a plan with a schedule to choose is re-ranked when it moves.
func (c *Catalog) SetEpochSource(fn func() uint64) { c.epoch = fn }

// Epoch returns the current catalog epoch (0 when no source is wired).
// The epoch advances on every mutation of the universe — DDL, DML,
// member-snapshot installs — and is the version key of the engine's
// plan cache.
func (c *Catalog) Epoch() uint64 {
	if c.epoch == nil {
		return 0
	}
	return c.epoch()
}

func (c *Catalog) changed() {
	if c.onChange != nil {
		c.onChange()
	}
}

// SetCommitLog installs the owner's write-ahead log. lock is the owner's
// commit lock — the one its own logged writes apply and append under —
// and replaces the catalog's private one, so a catalog mutation and a
// racing update request cannot log in the opposite order to the one they
// applied in. mut runs after each committed catalog mutation with the
// operation name ("create-db", "drop-db", "create-rel", "drop-rel",
// "insert"), its target, and the inserted tuples; snap after each member
// snapshot install (snapshot non-nil) or removal (nil) reaches the
// universe — logging the full snapshot makes recovery independent of the
// member being reachable. A non-nil return propagates to the caller: the
// in-memory change is applied but the log refused it, so the log is
// poisoned and the caller must treat the store as failed.
func (c *Catalog) SetCommitLog(lock sync.Locker, mut func(op, db, rel string, tuples []*object.Tuple) error, snap func(name string, snap *object.Tuple) error) {
	c.commitLock, c.logMut, c.logSnap = lock, mut, snap
}

func (c *Catalog) logMutation(op, db, rel string, tuples []*object.Tuple) error {
	if c.logMut == nil {
		return nil
	}
	return c.logMut(op, db, rel, tuples)
}

// CreateDatabase adds an empty database. It fails if the name is taken.
func (c *Catalog) CreateDatabase(name string) error {
	if name == "" {
		return fmt.Errorf("catalog: database name must not be empty")
	}
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	var err error
	c.applyUniverse(func(u *object.Tuple) bool {
		if u.Has(name) {
			err = fmt.Errorf("catalog: database %q already exists", name)
			return false
		}
		u.Put(name, object.NewTuple())
		return true
	})
	if err != nil {
		return err
	}
	return c.logMutation("create-db", name, "", nil)
}

// DropDatabase removes a database and all its relations.
func (c *Catalog) DropDatabase(name string) error {
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	var err error
	c.applyUniverse(func(u *object.Tuple) bool {
		if !u.Delete(name) {
			err = fmt.Errorf("catalog: no database %q", name)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return c.logMutation("drop-db", name, "", nil)
}

// database returns the tuple for a database.
func (c *Catalog) database(name string) (*object.Tuple, error) {
	v, ok := c.universe.Get(name)
	if !ok {
		return nil, fmt.Errorf("catalog: no database %q", name)
	}
	t, ok := v.(*object.Tuple)
	if !ok {
		return nil, fmt.Errorf("catalog: database %q is not a tuple of relations", name)
	}
	return t, nil
}

// CreateRelation adds an empty relation to a database.
func (c *Catalog) CreateRelation(db, rel string) error {
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	var err error
	c.applyUniverse(func(u *object.Tuple) bool {
		d, dErr := databaseIn(u, db)
		if dErr != nil {
			err = dErr
			return false
		}
		if rel == "" {
			err = fmt.Errorf("catalog: relation name must not be empty")
			return false
		}
		if d.Has(rel) {
			err = fmt.Errorf("catalog: relation %q already exists in %q", rel, db)
			return false
		}
		d.Put(rel, object.NewSet())
		return true
	})
	if err != nil {
		return err
	}
	return c.logMutation("create-rel", db, rel, nil)
}

// DropRelation removes a relation.
func (c *Catalog) DropRelation(db, rel string) error {
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	var err error
	c.applyUniverse(func(u *object.Tuple) bool {
		d, dErr := databaseIn(u, db)
		if dErr != nil {
			err = dErr
			return false
		}
		if !d.Delete(rel) {
			err = fmt.Errorf("catalog: no relation %q in %q", rel, db)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return c.logMutation("drop-rel", db, rel, nil)
}

// databaseIn resolves a database tuple inside an applyUniverse functor.
func databaseIn(u *object.Tuple, name string) (*object.Tuple, error) {
	v, ok := u.Get(name)
	if !ok {
		return nil, fmt.Errorf("catalog: no database %q", name)
	}
	t, ok := v.(*object.Tuple)
	if !ok {
		return nil, fmt.Errorf("catalog: database %q is not a tuple of relations", name)
	}
	return t, nil
}

// relationIn resolves (creating on demand) db.rel inside an applyUniverse
// functor, reporting what it created so the caller can log the DDL.
func relationIn(u *object.Tuple, db, rel string) (s *object.Set, madeDB, madeRel bool, err error) {
	if db == "" {
		return nil, false, false, fmt.Errorf("catalog: database name must not be empty")
	}
	dv, ok := u.Get(db)
	if !ok {
		dt := object.NewTuple()
		u.Put(db, dt)
		dv = dt
		madeDB = true
	}
	d, ok := dv.(*object.Tuple)
	if !ok {
		return nil, madeDB, false, fmt.Errorf("catalog: database %q is not a tuple of relations", db)
	}
	v, ok := d.Get(rel)
	if !ok {
		if rel == "" {
			return nil, madeDB, false, fmt.Errorf("catalog: relation name must not be empty")
		}
		ns := object.NewSet()
		d.Put(rel, ns)
		return ns, madeDB, true, nil
	}
	s, ok = v.(*object.Set)
	if !ok {
		return nil, madeDB, false, fmt.Errorf("catalog: %s.%s is not a relation", db, rel)
	}
	return s, madeDB, false, nil
}

// Relation returns a relation's set, creating the relation (and database)
// on demand when create is true. Creation routes through the applier so
// it is coherent with a concurrently evaluating engine.
func (c *Catalog) Relation(db, rel string, create bool) (*object.Set, error) {
	if !create {
		d, err := c.database(db)
		if err != nil {
			return nil, err
		}
		v, ok := d.Get(rel)
		if !ok {
			return nil, fmt.Errorf("catalog: no relation %q in %q", rel, db)
		}
		s, ok := v.(*object.Set)
		if !ok {
			return nil, fmt.Errorf("catalog: %s.%s is not a relation", db, rel)
		}
		return s, nil
	}
	var (
		s               *object.Set
		madeDB, madeRel bool
		err             error
	)
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	c.applyUniverse(func(u *object.Tuple) bool {
		s, madeDB, madeRel, err = relationIn(u, db, rel)
		return madeDB || madeRel
	})
	if madeDB {
		if lerr := c.logMutation("create-db", db, "", nil); lerr != nil {
			return s, lerr
		}
	}
	if err != nil {
		return nil, err
	}
	if madeRel {
		return s, c.logMutation("create-rel", db, rel, nil)
	}
	return s, nil
}

// Insert bulk-loads tuples into a relation (created on demand), skipping
// duplicates, and returns how many were added. The whole batch lands in
// one applier call; a target set that a snapshot shares (frozen) is
// thawed first, so the batch lands on a clone.
func (c *Catalog) Insert(db, rel string, tuples ...*object.Tuple) (int, error) {
	var (
		n               int
		madeDB, madeRel bool
		err             error
	)
	c.commitLock.Lock()
	defer c.commitLock.Unlock()
	c.applyUniverse(func(u *object.Tuple) bool {
		var s *object.Set
		s, madeDB, madeRel, err = relationIn(u, db, rel)
		if err != nil {
			return madeDB
		}
		if !madeRel {
			if d, dErr := databaseIn(u, db); dErr == nil {
				s, _ = object.Thaw(d, rel, s)
			}
		}
		for _, t := range tuples {
			if s.Add(t) {
				n++
			}
		}
		return madeDB || madeRel || n > 0
	})
	if madeDB {
		if lerr := c.logMutation("create-db", db, "", nil); lerr != nil {
			return n, lerr
		}
	}
	if err != nil {
		return 0, err
	}
	if madeRel {
		if lerr := c.logMutation("create-rel", db, rel, nil); lerr != nil {
			return n, lerr
		}
	}
	if n > 0 {
		// Replay re-inserts the whole batch; Add skips the duplicates the
		// original run skipped, so the outcome is identical.
		return n, c.logMutation("insert", db, rel, tuples)
	}
	return n, nil
}

// Databases lists database names, sorted.
func (c *Catalog) Databases() []string {
	names := append([]string(nil), c.universe.Attrs()...)
	sort.Strings(names)
	return names
}

// Relations lists a database's relation names, sorted.
func (c *Catalog) Relations(db string) ([]string, error) {
	d, err := c.database(db)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), d.Attrs()...)
	sort.Strings(names)
	return names, nil
}

// Attributes lists the union of attribute names across a relation's
// tuples, sorted. Heterogeneous relations report every name that occurs.
func (c *Catalog) Attributes(db, rel string) ([]string, error) {
	s, err := c.Relation(db, rel, false)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	s.Each(func(e object.Object) bool {
		if t, ok := e.(*object.Tuple); ok {
			for _, a := range t.Attrs() {
				seen[a] = true
			}
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Cardinality returns a relation's tuple count.
func (c *Catalog) Cardinality(db, rel string) (int, error) {
	s, err := c.Relation(db, rel, false)
	if err != nil {
		return 0, err
	}
	return s.Len(), nil
}

// Stat describes one relation for catalog listings.
type Stat struct {
	Database   string
	Relation   string
	Tuples     int
	Attributes []string
}

// Stats describes every relation in the universe, ordered by database
// then relation name.
func (c *Catalog) Stats() []Stat {
	var out []Stat
	for _, db := range c.Databases() {
		rels, err := c.Relations(db)
		if err != nil {
			continue
		}
		for _, rel := range rels {
			attrs, _ := c.Attributes(db, rel)
			n, _ := c.Cardinality(db, rel)
			out = append(out, Stat{Database: db, Relation: rel, Tuples: n, Attributes: attrs})
		}
	}
	return out
}
