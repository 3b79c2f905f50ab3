// Package object implements the nested value model of IDL (paper §3):
// every object is an atom, a tuple of named objects, or a set of objects.
//
// The universe of databases is itself a tuple: each attribute names a
// database, each database is a tuple of named relations, each relation is a
// set of tuples. Objects are value-based (no object identity, paper §3),
// sets may contain heterogeneous elements, and tuples may have varying
// arity within one relation — both are deliberate departures from the flat
// relational model that the paper calls out.
package object

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the concrete type of an Object.
type Kind uint8

// The object kinds. Null through Date are atomic; Tuple and Set are the
// aggregate kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
	KindTuple
	KindSet
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindTuple:
		return "tuple"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsAtomic reports whether the kind is one of the atomic kinds (including
// null, the paper's "null atomic object").
func (k Kind) IsAtomic() bool { return k <= KindDate }

// Object is the value interface shared by atoms, tuples, and sets.
//
// Equality is value-based and numeric-tolerant: Int(1) equals Float(1).
// Hash is consistent with Equal. Compare provides a total order used for
// the language's inequality operators and for canonical (deterministic)
// rendering of sets; atoms of incomparable kinds order by kind.
type Object interface {
	// Kind returns the object's kind tag.
	Kind() Kind
	// Equal reports value equality with another object.
	Equal(Object) bool
	// Hash returns a hash consistent with Equal.
	Hash() uint64
	// Compare returns -1, 0, or +1 ordering this object against other.
	// The order is total: atoms order numerically/lexically within
	// comparable kinds, then by kind tag; aggregates order structurally.
	Compare(other Object) int
	// Clone returns a deep copy. Atoms are immutable and return
	// themselves.
	Clone() Object
	// String renders the object in IDL surface syntax.
	String() string
}

// ---------------------------------------------------------------------------
// Atoms

// Null is the null atomic object. Per the paper's simplifying assumption
// (§5.2) a null value satisfies no atomic expression.
type Null struct{}

// Bool is a boolean atom. The paper does not use booleans directly but the
// evaluator produces them for variable-free queries.
type Bool bool

// Int is a 64-bit integer atom.
type Int int64

// Float is a 64-bit floating point atom.
type Float float64

// String is a string atom. Attribute names, relation names and database
// names — the metadata that higher-order variables range over — are String
// atoms when reified as data.
type Str string

// Date is a calendar date atom (no time zone, no time of day), matching the
// paper's 3/3/85 literals.
type Date struct {
	Year  int
	Month int
	Day   int
}

// NewDate builds a Date, normalizing two-digit years the way the paper's
// examples write them (85 ⇒ 1985).
func NewDate(year, month, day int) Date {
	if year < 100 {
		year += 1900
	}
	return Date{Year: year, Month: month, Day: day}
}

// ordinal maps the date to a single comparable integer (days are not
// validated against month lengths; ordering only needs monotonicity).
func (d Date) ordinal() int64 {
	return int64(d.Year)*512 + int64(d.Month)*32 + int64(d.Day)
}

func (Null) Kind() Kind  { return KindNull }
func (Bool) Kind() Kind  { return KindBool }
func (Int) Kind() Kind   { return KindInt }
func (Float) Kind() Kind { return KindFloat }
func (Str) Kind() Kind   { return KindString }
func (Date) Kind() Kind  { return KindDate }

func (n Null) Clone() Object  { return n }
func (b Bool) Clone() Object  { return b }
func (i Int) Clone() Object   { return i }
func (f Float) Clone() Object { return f }
func (s Str) Clone() Object   { return s }
func (d Date) Clone() Object  { return d }

func (Null) String() string   { return "null" }
func (b Bool) String() string { return strconv.FormatBool(bool(b)) }
func (i Int) String() string  { return strconv.FormatInt(int64(i), 10) }

func (f Float) String() string { return string(f.appendTo(make([]byte, 0, 24))) }

func (f Float) appendTo(dst []byte) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, float64(f), 'g', -1, 64)
	// Keep a trailing ".0" on integral floats so the rendering is
	// unambiguous about the atom's kind.
	if bytes.ContainsAny(dst[n:], ".eE") {
		return dst
	}
	return append(dst, ".0"...)
}

func (s Str) String() string {
	if isBareword(string(s)) {
		return string(s)
	}
	return strconv.Quote(string(s))
}

func (d Date) String() string { return string(d.appendTo(make([]byte, 0, 10))) }

func (d Date) appendTo(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(d.Month), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(d.Day), 10)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(d.Year%100), 10)
}

// AppendString appends o's String rendering to dst. Atoms — what answer
// tables are made of — render straight into dst without an intermediate
// string; aggregates go through String.
func AppendString(dst []byte, o Object) []byte {
	switch v := o.(type) {
	case Int:
		return strconv.AppendInt(dst, int64(v), 10)
	case Str:
		if isBareword(string(v)) {
			return append(dst, v...)
		}
		return strconv.AppendQuote(dst, string(v))
	case Date:
		return v.appendTo(dst)
	case Float:
		return v.appendTo(dst)
	case Bool:
		return strconv.AppendBool(dst, bool(v))
	default:
		return append(dst, o.String()...)
	}
}

// isBareword reports whether s can be rendered without quotes in IDL
// surface syntax: a letter or underscore followed by letters, digits or
// underscores, and not starting with an upper-case letter (which would
// parse as a variable).
func isBareword(s string) bool {
	if s == "" || s == "null" || s == "true" || s == "false" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z'):
		case r >= 'A' && r <= 'Z':
			if i == 0 {
				return false
			}
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// numericValue returns the float value of a numeric atom.
func numericValue(o Object) (float64, bool) {
	switch v := o.(type) {
	case Int:
		return float64(v), true
	case Float:
		return float64(v), true
	}
	return 0, false
}

// Equal implementations. Numeric atoms compare across Int/Float.

func (Null) Equal(o Object) bool { _, ok := o.(Null); return ok }

func (b Bool) Equal(o Object) bool {
	other, ok := o.(Bool)
	return ok && b == other
}

func (i Int) Equal(o Object) bool {
	switch v := o.(type) {
	case Int:
		return i == v
	case Float:
		return float64(i) == float64(v)
	}
	return false
}

func (f Float) Equal(o Object) bool {
	switch v := o.(type) {
	case Int:
		return float64(f) == float64(v)
	case Float:
		return f == v
	}
	return false
}

func (s Str) Equal(o Object) bool {
	other, ok := o.(Str)
	return ok && s == other
}

func (d Date) Equal(o Object) bool {
	other, ok := o.(Date)
	return ok && d == other
}

// Hash implementations (FNV-1a over a kind tag and payload). Int and Float
// must hash identically when Equal, so integral floats hash as ints.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func (Null) Hash() uint64 { return hashUint64(fnvOffset, 0x9e3779b97f4a7c15) }

func (b Bool) Hash() uint64 {
	v := uint64(2)
	if b {
		v = 3
	}
	return hashUint64(fnvOffset, v)
}

func (i Int) Hash() uint64 { return hashUint64(fnvOffset^0x1111, uint64(int64(i))) }

func (f Float) Hash() uint64 {
	// Integral floats hash like the corresponding Int so that
	// Equal(Int(1), Float(1)) implies equal hashes.
	if fv := float64(f); fv == math.Trunc(fv) && fv >= math.MinInt64 && fv < math.MaxInt64 {
		return Int(int64(fv)).Hash()
	}
	return hashUint64(fnvOffset^0x2222, math.Float64bits(float64(f)))
}

func (s Str) Hash() uint64 { return hashBytes(fnvOffset^0x3333, []byte(s)) }

func (d Date) Hash() uint64 { return hashUint64(fnvOffset^0x4444, uint64(d.ordinal())) }

// kindRank orders kinds for cross-kind comparison. Numeric kinds share a
// rank because they compare numerically.
func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindDate:
		return 4
	case KindTuple:
		return 5
	case KindSet:
		return 6
	}
	return 7
}

// compareRanks orders an object of kind a against b by kind rank alone;
// done is false when the ranks tie and the values must decide. It takes
// the receiver's kind, not the receiver: boxing an atom into an Object
// just to ask its kind would allocate on every comparison.
func compareRanks(a Kind, b Object) (c int, done bool) {
	ra, rb := kindRank(a), kindRank(b.Kind())
	if ra != rb {
		if ra < rb {
			return -1, true
		}
		return 1, true
	}
	return 0, false
}

func (Null) Compare(o Object) int {
	if c, done := compareRanks(KindNull, o); done {
		return c
	}
	return 0
}

func (b Bool) Compare(o Object) int {
	if c, done := compareRanks(KindBool, o); done {
		return c
	}
	other := o.(Bool)
	switch {
	case b == other:
		return 0
	case !bool(b):
		return -1
	default:
		return 1
	}
}

func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (i Int) Compare(o Object) int {
	if c, done := compareRanks(KindInt, o); done {
		return c
	}
	v, _ := numericValue(o)
	return compareFloats(float64(i), v)
}

func (f Float) Compare(o Object) int {
	if c, done := compareRanks(KindFloat, o); done {
		return c
	}
	v, _ := numericValue(o)
	return compareFloats(float64(f), v)
}

func (s Str) Compare(o Object) int {
	if c, done := compareRanks(KindString, o); done {
		return c
	}
	return strings.Compare(string(s), string(o.(Str)))
}

func (d Date) Compare(o Object) int {
	if c, done := compareRanks(KindDate, o); done {
		return c
	}
	other := o.(Date)
	switch {
	case d.ordinal() < other.ordinal():
		return -1
	case d.ordinal() > other.ordinal():
		return 1
	default:
		return 0
	}
}

// Comparable reports whether the two objects can meaningfully be compared
// with an inequality operator (<, ≤, >, ≥): both numeric, both strings,
// both dates, or both bools. Equality and inequality (=, ≠) are defined on
// every pair of objects.
func Comparable(a, b Object) bool {
	if a == nil || b == nil {
		return false
	}
	ra, rb := kindRank(a.Kind()), kindRank(b.Kind())
	return ra == rb && ra >= 1 && ra <= 4
}
