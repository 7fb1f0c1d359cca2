// Package model defines the value and tuple model of a Youtopia
// repository: constants, labeled nulls, tuples, the more-specific-than
// relation on tuples (Definition 2.4 of the paper), substitutions and
// unifiers, and canonical forms that are invariant under renaming of
// labeled nulls.
//
// A Youtopia database contains two kinds of values. Constants are
// ordinary strings. Labeled nulls (written x1, x2, ... in the paper)
// are placeholders for unknown values; all occurrences of a labeled
// null denote the same unknown, so replacing a null with a constant is
// a global, consistent operation.
package model

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

// ValueKind discriminates constants from labeled nulls.
type ValueKind uint8

const (
	// KindConst is an ordinary constant value.
	KindConst ValueKind = iota
	// KindNull is a labeled null (a named unknown).
	KindNull
)

// Value is a single attribute value: either a constant or a labeled
// null. Value is comparable and can be used as a map key.
//
// A constant points at the canonical copy of its string (intern.go)
// and carries its length; a null carries its identifier beside a
// sentinel pointer. So a Value is two words, equality is word
// comparison, and hashing a Value — the storage layer's value indexes
// and the query engine's binding comparisons both live on it — never
// touches string bytes. The zero Value is Const(""), whose pointer is
// nil.
type Value struct {
	p *byte // constant: its canonical copy, nil for ""; null: &nullMark
	n int64 // constant: its length; null: its identifier
}

// nullMark marks nulls, so that Null(0) differs from the zero Value.
var nullMark byte

// Const returns a constant value, interning the payload if no live
// Value holds it. Hot paths that reuse a constant should intern once
// and keep the Value (compiled plans and mapping terms hold theirs).
func Const(s string) Value { return Value{p: intern(s), n: int64(len(s))} }

// Null returns the labeled null with the given identifier.
func Null(id int64) Value { return Value{p: &nullMark, n: id} }

// Kind reports whether v is a constant or a labeled null.
func (v Value) Kind() ValueKind {
	if v.IsNull() {
		return KindNull
	}
	return KindConst
}

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v.p == &nullMark }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return !v.IsNull() }

// ConstValue returns the constant payload. It panics if v is a null.
func (v Value) ConstValue() string {
	if v.IsNull() {
		panic("model: ConstValue called on labeled null " + v.String())
	}
	return unsafe.String(v.p, v.n)
}

// NullID returns the identifier of a labeled null. It panics if v is a
// constant.
func (v Value) NullID() int64 {
	if !v.IsNull() {
		panic("model: NullID called on constant " + v.String())
	}
	return v.n
}

// Hash folds the value into one word, for callers that hash composite
// keys containing values (the storage indexes, the chase's read-log
// identity) without rendering them: a constant's address
// shifted left, or id<<1|1 for a null. Distinct live values hash
// distinct, except nulls whose identifiers differ in bit 63 alone.
//
// A constant's hash is stable only while the value is alive: once no
// Value refers to a canonical copy it can be collected, and a later
// Const of the same string — or of another — may mint a copy at the
// same address. A structure keyed by a derived hash must therefore
// retain the values it hashed for as long as the key can be probed
// (the storage indexes keep the versions their keys were computed
// from, the read log the reads). The storage indexes fold the word
// further into 32-bit keys that several values may share, and check
// every candidate against the values themselves.
func (v Value) Hash() uint64 {
	if v.IsNull() {
		return uint64(v.n)<<1 | 1
	}
	return uint64(uintptr(unsafe.Pointer(v.p))) << 1
}

// String renders the value in the paper's notation: constants appear
// verbatim, counter nulls as x<id> and minted nulls as
// x<namespace>.<update>.<ordinal>.
func (v Value) String() string {
	if !v.IsNull() {
		return unsafe.String(v.p, v.n)
	}
	return string(v.AppendString(nil))
}

// AppendString appends String's rendering of v to dst; violation keys
// are rendered with it (a minted name is shorter than its identifier).
func (v Value) AppendString(dst []byte) []byte {
	if !v.IsNull() {
		return append(dst, unsafe.String(v.p, v.n)...)
	}
	space, update, ordinal, ok := mintedName(v.n)
	if !ok {
		return strconv.AppendInt(append(dst, 'x'), v.n, 10)
	}
	dst = strconv.AppendInt(append(dst, 'x'), space, 10)
	dst = strconv.AppendInt(append(dst, '.'), update, 10)
	return strconv.AppendInt(append(dst, '.'), ordinal, 10)
}

// GoString renders the value unambiguously for debugging.
func (v Value) GoString() string {
	if v.IsNull() {
		return fmt.Sprintf("Null(%d)", v.n)
	}
	return fmt.Sprintf("Const(%q)", unsafe.String(v.p, v.n))
}

// appendEncoded appends v's collision-free encoding in tuple keys to
// dst: 'n' and the identifier of a null, 'c' and the escaped payload
// of a constant.
func (v Value) appendEncoded(dst []byte) []byte {
	if v.IsNull() {
		return strconv.AppendInt(append(dst, 'n'), v.n, 10)
	}
	return appendKeyPart(append(dst, 'c'), unsafe.String(v.p, v.n))
}

// appendKeyPart appends s to dst with the tuple-key separator byte,
// NUL, doubled, so that no part can render a separator followed by
// what looks like the next part.
func appendKeyPart(dst []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, 0)
		s = s[i+1:]
	}
}

// Counter nulls (parsed ?names, FreshNull, explicit Null(id) values)
// are numbered 1, 2, ... by a NullFactory, below mintedBit. A null a
// chase mints is named (namespace, update number, ordinal within the
// attempt): mintedBit, then the fields from the most significant down,
// so identifier order is name order, and below 2^62, where Hash tells
// any two apart. Only this file knows the layout.
const (
	mintedBit   = 1 << 61
	ordinalBits = 14
	updateBits  = 27
	spaceBits   = 61 - updateBits - ordinalBits
)

// NullNameError reports a chase null name with a field outside its
// width; names never wrap into another field.
type NullNameError struct {
	Field string // "namespace", "update" or "ordinal"
	Value int64
}

// Error renders the refusal.
func (e *NullNameError) Error() string {
	return fmt.Sprintf("model: labeled null %s %d does not fit its field", e.Field, e.Value)
}

// MintedNull returns the labeled null a chase names (space, update,
// ordinal), or a *NullNameError.
func MintedNull(space int64, update, ordinal int) (Value, error) {
	switch {
	case uint64(space) >= 1<<spaceBits:
		return Value{}, &NullNameError{"namespace", space}
	case uint64(update) >= 1<<updateBits:
		return Value{}, &NullNameError{"update", int64(update)}
	case uint64(ordinal) >= 1<<ordinalBits:
		return Value{}, &NullNameError{"ordinal", int64(ordinal)}
	}
	return Null(mintedBit | space<<(updateBits+ordinalBits) | int64(update)<<ordinalBits | int64(ordinal)), nil
}

// MintedName returns the name of a null a chase minted: its namespace,
// update number and ordinal. ok is false for constants and counter
// nulls.
func (v Value) MintedName() (space int64, update, ordinal int, ok bool) {
	if !v.IsNull() {
		return 0, 0, 0, false
	}
	space, u, o, ok := mintedName(v.n)
	return space, int(u), int(o), ok
}

// mintedName splits a minted null's identifier into its fields; ok is
// false for counter nulls.
func mintedName(id int64) (space, update, ordinal int64, ok bool) {
	ok = id>>61 == 1
	return id &^ mintedBit >> (updateBits + ordinalBits), id >> ordinalBits & (1<<updateBits - 1), id & (1<<ordinalBits - 1), ok
}

// NullFactory hands out counter nulls (Fresh) and chase namespaces
// (Reserve), both from 1. The zero value is ready and safe for
// concurrent use.
type NullFactory struct {
	next   atomic.Int64
	spaces atomic.Int64
}

// Fresh returns a counter null this factory has never returned.
func (f *NullFactory) Fresh() Value {
	return Null(f.next.Add(1))
}

// Reserve returns a chase namespace that no earlier Reserve returned
// and no noted null is named in.
func (f *NullFactory) Reserve() int64 { return f.spaces.Add(1) }

// Floor returns the largest counter identifier returned or floored so
// far, which a checkpoint carries for SetFloor.
func (f *NullFactory) Floor() int64 { return f.next.Load() }

// SetFloor ensures future counter identifiers are strictly greater
// than id.
func (f *NullFactory) SetFloor(id int64) { raise(&f.next, id) }

// Note keeps a loaded null's name from being handed out again: a
// minted null raises the namespace counter past its namespace, a
// counter null the identifier counter past its identifier.
func (f *NullFactory) Note(v Value) {
	if !v.IsNull() {
		return
	}
	if space, _, _, ok := mintedName(v.n); ok {
		raise(&f.spaces, space)
	} else {
		raise(&f.next, v.n)
	}
}

// raise lifts c to at least v.
func raise(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if cur >= v || c.CompareAndSwap(cur, v) {
			return
		}
	}
}
