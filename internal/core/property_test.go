package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"idl/internal/object"
)

// randRelation describes a generated flat relation for property tests.
type randRelation struct {
	Rows []randRow
}

type randRow struct {
	K int // key-ish attribute, small domain
	V int // value attribute
	W int // extra attribute, sometimes omitted
	// OmitW drops the w attribute (heterogeneous arity).
	OmitW bool
}

// Generate implements quick.Generator.
func (randRelation) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(30)
	rel := randRelation{Rows: make([]randRow, n)}
	for i := range rel.Rows {
		rel.Rows[i] = randRow{
			K:     r.Intn(8),
			V:     r.Intn(50),
			W:     r.Intn(5),
			OmitW: r.Intn(4) == 0,
		}
	}
	return reflect.ValueOf(rel)
}

func (rr randRelation) tuple(i int) *object.Tuple {
	row := rr.Rows[i]
	t := object.NewTuple()
	t.Put("k", object.Int(row.K))
	t.Put("v", object.Int(row.V))
	if !row.OmitW {
		t.Put("w", object.Int(row.W))
	}
	return t
}

// engineWith builds an engine holding d.r = the generated relation,
// inserting rows in the given order.
func engineWith(rr randRelation, order []int) *Engine {
	e := NewEngine()
	rel := object.NewSet()
	for _, i := range order {
		rel.Add(rr.tuple(i))
	}
	d := object.NewTuple()
	d.Put("r", rel)
	e.Base().Put("d", d)
	e.Invalidate()
	return e
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var propCfg = &quick.Config{MaxCount: 60}

// Answers must not depend on set insertion order.
func TestPropAnswerOrderInvariance(t *testing.T) {
	f := func(rr randRelation, seed int64) bool {
		n := len(rr.Rows)
		e1 := engineWith(rr, identityOrder(n))
		shuffled := identityOrder(n)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		e2 := engineWith(rr, shuffled)
		for _, src := range []string{
			"?.d.r(.k=K, .v=V)",
			"?.d.r(.k=K, .v>25)",
			"?.d.r(.A=X)", // higher-order over attribute names
			"?.d.r(.k=K, .v=V), .d.r~(.k=K, .v>V)",
		} {
			a1, a2 := q(t, e1, src), q(t, e2, src)
			a1.Sort()
			a2.Sort()
			if a1.String() != a2.String() {
				t.Logf("query %s:\n%s\nvs\n%s", src, a1, a2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// A boolean condition and its negation are complementary.
func TestPropNegationComplementary(t *testing.T) {
	f := func(rr randRelation, threshold uint8) bool {
		e := engineWith(rr, identityOrder(len(rr.Rows)))
		cond := fmt.Sprintf("?.d.r(.v>%d)", threshold%60)
		neg := fmt.Sprintf("?~.d.r(.v>%d)", threshold%60)
		return q(t, e, cond).Bool() != q(t, e, neg).Bool()
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// `=X` enumeration returns exactly the distinct attribute values.
func TestPropBindingEnumeratesDistinctValues(t *testing.T) {
	f := func(rr randRelation) bool {
		e := engineWith(rr, identityOrder(len(rr.Rows)))
		ans := q(t, e, "?.d.r(.k=K)")
		want := map[int]bool{}
		for _, row := range rr.Rows {
			want[row.K] = true
		}
		if ans.Len() != len(want) {
			return false
		}
		for k := range want {
			if !ans.Contains(row("K", object.Int(k))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// Inserting then deleting a tuple restores the relation exactly.
func TestPropInsertDeleteInverse(t *testing.T) {
	f := func(rr randRelation, k, v uint8) bool {
		e := engineWith(rr, identityOrder(len(rr.Rows)))
		before := relation(t, e, "d", "r").Clone()
		ins := fmt.Sprintf("?.d.r+(.k=%d, .v=%d, .fresh=1)", k, v)
		del := fmt.Sprintf("?.d.r-(.k=%d, .v=%d, .fresh=1)", k, v)
		exec(t, e, ins)
		exec(t, e, del)
		return before.Equal(relation(t, e, "d", "r"))
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// A failing request must leave the universe untouched (atomicity), no
// matter what mutations preceded the failure.
func TestPropAtomicityUnderFailure(t *testing.T) {
	f := func(rr randRelation, k uint8) bool {
		e := engineWith(rr, identityOrder(len(rr.Rows)))
		before := relation(t, e, "d", "r").Clone()
		// Mutates (delete all with key), then fails on an unbound insert.
		execErr(t, e, fmt.Sprintf("?.d.r-(.k=%d), .d.r+(.k=Unbound)", k%8))
		return before.Equal(relation(t, e, "d", "r"))
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// A materialized copy view equals its source relation.
func TestPropCopyViewFidelity(t *testing.T) {
	f := func(rr randRelation) bool {
		e := engineWith(rr, identityOrder(len(rr.Rows)))
		mustRule(t, e, ".v.copy+(.k=K, .v=V) <- .d.r(.k=K, .v=V)")
		// The copy view projects k and v; compare against a projected
		// source.
		want := object.NewSet()
		for i := range rr.Rows {
			tp := object.NewTuple()
			tp.Put("k", object.Int(rr.Rows[i].K))
			tp.Put("v", object.Int(rr.Rows[i].V))
			want.Add(tp)
		}
		eff, err := e.EffectiveUniverse()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := eff.Get("v")
		if !ok {
			return want.Len() == 0
		}
		got, _ := v.(*object.Tuple).Get("copy")
		if got == nil {
			return want.Len() == 0
		}
		return want.Equal(got)
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// engineWithOptions is engineWith under explicit options, for the
// parallel-evaluation properties.
func engineWithOptions(rr randRelation, order []int, opts Options) *Engine {
	e := NewEngineWithOptions(opts)
	rel := object.NewSet()
	for _, i := range order {
		rel.Add(rr.tuple(i))
	}
	d := object.NewTuple()
	d.Put("r", rel)
	e.Base().Put("d", d)
	e.Invalidate()
	return e
}

// propQueries is the query mix the parallel properties compare: scans,
// projections, higher-order attribute enumeration, and negated
// self-joins over the generated relation.
var propQueries = []string{
	"?.d.r(.k=K, .v=V)",
	"?.d.r(.k=K, .v>25)",
	"?.d.r(.A=X)",
	"?.d.r(.k=K, .v=V), .d.r~(.k=K, .v>V)",
}

// Parallel answers are byte-identical to sequential ones — same rows in
// the same order, no sorting — at every worker count, for any generated
// relation in any insertion order.
func TestPropParallelWorkerInvariance(t *testing.T) {
	f := func(rr randRelation, seed int64) bool {
		n := len(rr.Rows)
		order := identityOrder(n)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		opts := DefaultOptions()
		seqE := engineWithOptions(rr, order, opts)
		for _, workers := range []int{2, 3, 8} {
			opts.Workers = workers
			parE := engineWithOptions(rr, order, opts)
			for _, src := range propQueries {
				s, p := q(t, seqE, src), q(t, parE, src)
				if s.String() != p.String() {
					t.Logf("workers=%d query %s:\n%s\nvs\n%s", workers, src, s, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// propRules feed the rule-order property: two independent rules, one
// reading another's head (forcing a rule wave), one with a constraint.
var propRules = []string{
	".x.a+(.k=K) <- .d.r(.k=K, .v>10)",
	".x.b+(.k=K, .w=W) <- .d.r(.k=K, .w=W)",
	".x.c+(.k=K) <- .x.a(.k=K), .d.r~(.k=K, .v>40)",
	".x.d+(.v=V) <- .d.r(.v=V), V > 25",
}

// Materialization is invariant under rule registration order: for any
// permutation of the rule set, parallel overlays are byte-identical to
// sequential ones under the same permutation, and the derived facts are
// the same set under every permutation.
func TestPropParallelRuleOrderInvariance(t *testing.T) {
	f := func(rr randRelation, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(len(propRules))
		addRules := func(e *Engine) {
			for _, i := range perm {
				mustRule(t, e, propRules[i])
			}
		}
		opts := DefaultOptions()
		seqE := engineWithOptions(rr, identityOrder(len(rr.Rows)), opts)
		addRules(seqE)
		seqOverlay, _ := overlayString(t, seqE)
		for _, workers := range []int{2, 4} {
			opts.Workers = workers
			parE := engineWithOptions(rr, identityOrder(len(rr.Rows)), opts)
			addRules(parE)
			parOverlay, _ := overlayString(t, parE)
			if parOverlay != seqOverlay {
				t.Logf("workers=%d perm %v overlay:\n%s\nvs\n%s", workers, perm, seqOverlay, parOverlay)
				return false
			}
		}
		// Across permutations the derived facts are order-independent as
		// sets: compare sorted answers against the identity ordering.
		baseE := engineWithOptions(rr, identityOrder(len(rr.Rows)), DefaultOptions())
		for _, src := range propRules {
			mustRule(t, baseE, src)
		}
		for _, src := range []string{"?.x.a(.k=K)", "?.x.b(.k=K, .w=W)", "?.x.c(.k=K)", "?.x.d(.v=V)"} {
			a, b := q(t, baseE, src), q(t, seqE, src)
			a.Sort()
			b.Sort()
			if a.String() != b.String() {
				t.Logf("perm %v query %s:\n%s\nvs\n%s", perm, src, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}

// Index and scan evaluation agree on every query.
func TestPropIndexScanEquivalence(t *testing.T) {
	f := func(rr randRelation, k uint8) bool {
		mk := func(useIndex bool) *Engine {
			opts := DefaultOptions()
			opts.UseIndex = useIndex
			e := NewEngineWithOptions(opts)
			rel := object.NewSet()
			for i := range rr.Rows {
				rel.Add(rr.tuple(i))
			}
			d := object.NewTuple()
			d.Put("r", rel)
			e.Base().Put("d", d)
			e.Invalidate()
			return e
		}
		e1, e2 := mk(true), mk(false)
		src := fmt.Sprintf("?.d.r(.k=%d, .v=V)", k%8)
		a1, a2 := q(t, e1, src), q(t, e2, src)
		a1.Sort()
		a2.Sort()
		return a1.String() == a2.String()
	}
	if err := quick.Check(f, propCfg); err != nil {
		t.Error(err)
	}
}
