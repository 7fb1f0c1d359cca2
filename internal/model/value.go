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
// verbatim, labeled nulls as x<id>.
func (v Value) String() string {
	if v.IsNull() {
		return "x" + strconv.FormatInt(v.n, 10)
	}
	return unsafe.String(v.p, v.n)
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

// NullFactory mints fresh labeled nulls. It is safe for concurrent
// use. The zero value is ready to use and starts numbering at 1.
type NullFactory struct {
	next atomic.Int64
}

// Fresh returns a labeled null that has never been returned before by
// this factory.
func (f *NullFactory) Fresh() Value {
	return Null(f.next.Add(1))
}

// Peek returns the identifier that the next call to Fresh would use,
// without consuming it. It is intended for diagnostics and tests.
func (f *NullFactory) Peek() int64 { return f.next.Load() + 1 }

// Mark returns the counter value for a later Rewind.
func (f *NullFactory) Mark() int64 { return f.next.Load() }

// Rewind lowers the counter back to a previously captured Mark. It is
// only sound when every null minted after the mark has been discarded
// everywhere (a rolled-back update attempt whose writes were aborted);
// callers must exclude concurrent minting for the capture/rewind span.
func (f *NullFactory) Rewind(mark int64) { f.next.Store(mark) }

// SetFloor ensures future identifiers are strictly greater than id.
// It is used when loading a database that already contains nulls.
func (f *NullFactory) SetFloor(id int64) {
	for {
		cur := f.next.Load()
		if cur >= id {
			return
		}
		if f.next.CompareAndSwap(cur, id) {
			return
		}
	}
}
