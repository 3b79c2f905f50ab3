package parser

import (
	"slices"
	"sync/atomic"

	"idl/internal/ast"
	"idl/internal/lex"
	"idl/internal/object"
)

// The shape table (DESIGN.md §20). A workload's reads are a few shapes
// with changing literals, and a plan already serves every statement of
// its shape (internal/core/slots.go); the table lets the front end do the
// same. A statement's shape key is its token stream with the values of
// its INT, FLOAT, DATE and STRING tokens left out: every kind, and the
// text of every identifier, variable and punctuation token. Two
// statements with one key parse into trees that differ only in those
// values, because only kinds steer the parser. The first statement of a
// key is parsed and becomes the shape's representative; every later one
// is lexed, its literal tokens are converted into the representative's
// literal slots, and no tree is built. This is not a text cache: a
// statement's answer still comes from evaluating its own literals.

// shapeSlots bounds the table. A key may live in two slots, so keys
// collide only three to a slot pair; a colliding key replaces the one
// it lands on.
const shapeSlots = 1024

// Shapes is a bounded, lock-free table of query shapes. The zero value
// is empty and ready to use; it is safe for concurrent use.
type Shapes struct {
	slots  [shapeSlots]atomic.Pointer[Shape]
	misses atomic.Uint64
}

// Shape is one query shape: the key, the representative tree, and what
// a statement of the shape needs to bind and render its own literals.
// It is immutable once published.
type Shape struct {
	hash uint64
	src  string      // the representative's normalised source
	toks []lex.Token // and its tokens: the key, read against src

	q     *ast.Query      // the representative; never mutated
	fp    uint64          // its ast.FingerprintLits hash
	vals  []object.Object // its literals, in plan-slot order
	lits  []litRef        // where a statement's literal i comes from
	fixed []int32         // literal tokens not lifted (attribute names): compared exactly
	segs  []string        // the rendering around the literal holes: len(vals)+1 pieces
}

// litRef is where one lifted constant came from: a literal token, read
// negated when a unary minus folded into it, or (tok < 0) nowhere in
// particular — an identifier, or the 0 of a unary minus over a
// non-number — so it keeps the representative's value.
type litRef struct {
	tok int32
	neg bool
}

// Stmt is a query statement as Shapes.Parse returns it. When Shape is
// set, Query is the shape's representative and Lits are the statement's
// own literals in plan-slot order; otherwise Query is the statement's
// own tree.
//
// A representative carries another statement's literal values: read
// names and structure from it (IsUpdate, fingerprints, conjunct
// attribute names), never a constant's value or its rendering.
type Stmt struct {
	Query *ast.Query
	Shape *Shape
	Lits  []object.Object
}

// String renders the statement in IDL surface syntax, as its own tree's
// String would.
func (s Stmt) String() string {
	if s.Shape != nil {
		return s.Shape.render(s.Lits)
	}
	return s.Query.String()
}

// Tree returns the statement's own tree: Query, or with a shape a parse
// of the statement's rendering, for the rare reader of a constant's
// value. A rendering re-parses to a tree that renders the same
// (FuzzParse).
func (s Stmt) Tree() *ast.Query {
	if s.Shape != nil {
		if q, err := ParseQuery(s.String()); err == nil {
			return q
		}
	}
	return s.Query
}

// Fingerprint returns the shape's ast.FingerprintLits hash.
func (s *Shape) Fingerprint() uint64 { return s.fp }

// Misses reports how many statements the table has parsed because their
// shape was not held: its hit share over n reads is 1 - Misses/n.
func (t *Shapes) Misses() uint64 { return t.misses.Load() }

// Parse parses src as ParseQuery does — with the same result or the
// same error — through the table. When src's shape is in the table, it
// lexes and binds src's literals and builds no tree. Otherwise it parses
// and, for a query without update expressions, stores the shape and
// returns the statement as its representative. A statement is returned
// without a shape only when it updates, or in the case its shape's
// checks fail (see newShape), when nothing is stored.
func (t *Shapes) Parse(src string) (Stmt, error) {
	src = querySource(src)
	toks, err := tokens(src)
	if err != nil {
		return Stmt{}, err
	}
	h := shapeHash(toks, src)
	a, b := t.slotsFor(h)
	for _, slot := range [2]*atomic.Pointer[Shape]{a, b} {
		if s := slot.Load(); s != nil && s.hash == h && s.keyMatches(toks, src) && s.fixedMatch(toks, src) {
			return Stmt{Query: s.q, Shape: s, Lits: s.bind(toks, src)}, nil
		}
	}
	t.misses.Add(1)
	p := &parser{src: src, toks: toks, record: true, lits: make([]litRef, 0, 8)}
	q, err := p.query()
	if err != nil || ast.HasUpdate(q.Body) {
		return Stmt{Query: q}, err
	}
	s := newShape(h, p, q)
	if s == nil {
		return Stmt{Query: q}, nil
	}
	t.store(a, b, s)
	return Stmt{Query: q, Shape: s, Lits: s.vals}, nil
}

// slotsFor returns the two slots a key of hash h may occupy.
func (t *Shapes) slotsFor(h uint64) (a, b *atomic.Pointer[Shape]) {
	return &t.slots[h%shapeSlots], &t.slots[(h>>32)%shapeSlots]
}

// store publishes s in the slot holding its key, else in an empty one,
// else over a's entry.
func (t *Shapes) store(a, b *atomic.Pointer[Shape], s *Shape) {
	for _, slot := range [2]*atomic.Pointer[Shape]{a, b} {
		if cur := slot.Load(); cur != nil && cur.hash == s.hash && cur.keyMatches(s.toks, s.src) {
			slot.Store(s)
			return
		}
	}
	if a.Load() != nil && b.Load() == nil {
		a = b
	}
	a.Store(s)
}

// newShape builds the shape of q, which p parsed with recording on. It
// checks what a hit relies on — that binding p's own tokens gives q's
// literals, and that the template renders them as q.String() does — and
// returns nil when a check fails. FuzzShape finds no statement that
// fails them; the checks keep a parser change that breaks the literal
// record from binding a wrong answer.
func newShape(h uint64, p *parser, q *ast.Query) *Shape {
	fp, vals := ast.FingerprintLits(q, make([]object.Object, 0, len(p.lits)))
	var spans [16]int
	text, holes := ast.Template(q, spans[:0]) // String's rendering, with the literals' spans
	if len(p.lits) != len(vals) || len(holes) != 2*len(vals) {
		return nil
	}
	s := &Shape{hash: h, src: p.src, toks: p.toks, q: q, fp: fp, vals: vals, lits: p.lits}
	for i, tok := range p.toks {
		if isLiteral(tok.Kind) && !slices.ContainsFunc(p.lits, func(r litRef) bool { return int(r.tok) == i }) {
			s.fixed = append(s.fixed, int32(i))
		}
	}
	s.segs = make([]string, 0, len(vals)+1)
	prev := 0
	for i := 0; i < len(holes); i += 2 {
		s.segs = append(s.segs, text[prev:holes[i]])
		prev = holes[i+1]
	}
	s.segs = append(s.segs, text[prev:])
	for i, want := range vals {
		if v := s.lit(i, p.toks, p.src); v.Kind() != want.Kind() || v.Compare(want) != 0 {
			return nil
		}
	}
	var buf [128]byte
	if string(s.appendTo(buf[:0], vals)) != text {
		return nil
	}
	return s
}

// isLiteral reports whether a token kind's text is left out of the
// shape key.
func isLiteral(k lex.Kind) bool {
	return k == lex.INT || k == lex.FLOAT || k == lex.DATE || k == lex.STRING
}

// shapeHash hashes the shape key of toks over src (FNV-1a): every kind,
// and the text of every non-literal token.
func shapeHash(toks []lex.Token, src string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, t := range toks {
		h = (h ^ uint64(t.Kind)) * prime
		if !isLiteral(t.Kind) {
			for i := t.Off; i < t.End; i++ {
				h = (h ^ uint64(src[i])) * prime
			}
		}
	}
	return h
}

// keyMatches reports whether toks over src has s's key exactly: the
// same kinds, and the same text for every non-literal token.
func (s *Shape) keyMatches(toks []lex.Token, src string) bool {
	if len(toks) != len(s.toks) {
		return false
	}
	for i, t := range toks {
		r := s.toks[i]
		if t.Kind != r.Kind || !isLiteral(t.Kind) && src[t.Off:t.End] != s.src[r.Off:r.End] {
			return false
		}
	}
	return true
}

// fixedMatch reports whether the literal tokens the shape did not lift
// have the representative's exact text.
func (s *Shape) fixedMatch(toks []lex.Token, src string) bool {
	for _, i := range s.fixed {
		t, r := toks[i], s.toks[i]
		if src[t.Off:t.End] != s.src[r.Off:r.End] {
			return false
		}
	}
	return true
}

// bind converts a statement's literal tokens into its literal vector.
func (s *Shape) bind(toks []lex.Token, src string) []object.Object {
	lits := make([]object.Object, len(s.vals))
	for i := range lits {
		lits[i] = s.lit(i, toks, src)
	}
	return lits
}

// lit is a statement's literal i, read from its tokens.
func (s *Shape) lit(i int, toks []lex.Token, src string) object.Object {
	r := s.lits[i]
	if r.tok < 0 {
		return s.vals[i]
	}
	v := literal(toks[r.tok], src)
	if r.neg {
		v, _ = negate(v)
	}
	return v
}

// render fills the template's holes with lits.
func (s *Shape) render(lits []object.Object) string {
	var buf [128]byte
	return string(s.appendTo(buf[:0], lits))
}

// appendTo appends the template, its holes filled with lits, to b.
func (s *Shape) appendTo(b []byte, lits []object.Object) []byte {
	b = append(b, s.segs[0]...)
	for i, v := range lits {
		b = object.AppendString(b, v)
		b = append(b, s.segs[i+1]...)
	}
	return b
}

// literal converts an INT, FLOAT, DATE or STRING token to its value.
func literal(t lex.Token, src string) object.Object {
	switch t.Kind {
	case lex.INT:
		return object.Int(t.Int(src))
	case lex.FLOAT:
		return object.Float(t.Float(src))
	case lex.DATE:
		return object.NewDate(t.Date(src))
	default:
		return object.Str(t.Text(src))
	}
}

// negate folds a unary minus into a numeric constant.
func negate(v object.Object) (object.Object, bool) {
	switch v := v.(type) {
	case object.Int:
		return -v, true
	case object.Float:
		return -v, true
	}
	return v, false
}

// lift records the source of a value-position constant — token index
// tok, or -1 for none — at position at of the record: the end, or before
// constants built ahead of it that follow it in walk order.
func (p *parser) lift(at, tok int) {
	if p.record {
		p.lits = slices.Insert(p.lits, at, litRef{tok: int32(tok)})
	}
}

// negateLift notes that the constant recorded at position at was
// negated by a unary minus.
func (p *parser) negateLift(at int) {
	if p.record && at < len(p.lits) {
		p.lits[at].neg = !p.lits[at].neg
	}
}
