package object

import "testing"

// TestThaw: an unfrozen set is its own writable copy; a frozen one is
// cloned into its parent, and the clone — unfrozen, with a memo of its
// own — takes the writes while the original keeps its contents and its
// index.
func TestThaw(t *testing.T) {
	s := SetOf(TupleOf("k", 1), TupleOf("k", 2))
	parent := TupleOf("r", s)
	if got, cloned := Thaw(parent, "r", s); got != s || cloned {
		t.Fatalf("unfrozen set: Thaw = %p, cloned %v; want the set itself", got, cloned)
	}
	eqs := []AttrEq{{Attr: "k", Val: Int(1)}}
	if _, built := s.Probe(eqs); !built {
		t.Fatal("first probe built no index")
	}
	s.Freeze()
	c, cloned := Thaw(parent, "r", s)
	if c == s || !cloned {
		t.Fatal("frozen set was not cloned")
	}
	if v, _ := parent.Get("r"); v != c {
		t.Fatal("the clone does not replace the frozen set in its parent")
	}
	if again, cloned := Thaw(parent, "r", c); again != c || cloned {
		t.Fatal("the clone is frozen")
	}
	c.Add(TupleOf("k", 1, "x", 1))
	if s.Len() != 2 || c.Len() != 3 {
		t.Fatalf("lens: original %d, clone %d; want 2, 3", s.Len(), c.Len())
	}
	if cands, built := s.Probe(eqs); built || len(cands) != 1 {
		t.Fatalf("original after the clone's write: %d candidates, built %v; want its own index", len(cands), built)
	}
	if cands, built := c.Probe(eqs); !built || len(cands) != 2 {
		t.Fatalf("clone: %d candidates, built %v; want a fresh index", len(cands), built)
	}
}

// TestMemoFollowsVersion: indexes and statistics are built once per set
// version, and a content change makes both stale.
func TestMemoFollowsVersion(t *testing.T) {
	s := NewSet()
	for i := range 20 {
		s.Add(TupleOf("k", i%4, "v", i))
	}
	eqs := []AttrEq{{Attr: "k", Val: Int(3)}}
	one := []AttrEq{{Attr: "v", Val: Int(3)}, {Attr: "k", Val: Int(3)}}
	for i, want := range []bool{true, false} {
		if _, built := s.Probe(eqs); built != want {
			t.Fatalf("probe %d on k: built %v, want %v", i, built, want)
		}
	}
	if cands, built := s.Probe(one); !built || len(cands) != 1 {
		t.Fatalf("probe on (v, k): %d candidates, built %v; want a second index", len(cands), built)
	}
	if _, built := s.Probe([]AttrEq{{Attr: "k", Val: Int(1)}, {Attr: "v", Val: Int(1)}}); built {
		t.Fatal("probe on (k, v) rebuilt the (v, k) index")
	}
	st := s.Stats()
	if st.Card != 20 || st.Distinct["k"] != 4 || st.Distinct["v"] != 20 {
		t.Fatalf("stats %+v", st)
	}
	if s.Stats() != st {
		t.Fatal("stats recomputed at an unchanged version")
	}
	s.Add(TupleOf("k", 3, "v", 99))
	if cands, built := s.Probe(eqs); !built || len(cands) != 6 {
		t.Fatalf("probe after a write: %d candidates, built %v; want a rebuilt index", len(cands), built)
	}
	if st := s.Stats(); st.Card != 21 {
		t.Fatalf("stats after a write: card %d, want 21", st.Card)
	}
}
