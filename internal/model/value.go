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
// Constants are interned: the payload is a symbol id into the
// process-wide string table (intern.go), so a Value is two words,
// equality is integer comparison, and hashing a Value — the storage
// layer's value indexes and the query engine's binding comparisons
// both live on it — never touches string bytes. The zero Value is
// Const("") because symbol 0 is pre-seeded as the empty string.
type Value struct {
	kind ValueKind
	id   int64 // constant symbol id, or null identifier
}

// Const returns a constant value, interning the payload on first
// sight. Hot paths that reuse a constant should intern once and keep
// the Value (the query planner bakes mapping constants into compiled
// plans for exactly this reason).
func Const(s string) Value { return Value{kind: KindConst, id: intern(s)} }

// Null returns the labeled null with the given identifier.
func Null(id int64) Value { return Value{kind: KindNull, id: id} }

// Kind reports whether v is a constant or a labeled null.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether v is a labeled null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v.kind == KindConst }

// ConstValue returns the constant payload. It panics if v is a null.
func (v Value) ConstValue() string {
	if v.kind != KindConst {
		panic("model: ConstValue called on labeled null " + v.String())
	}
	return symString(v.id)
}

// NullID returns the identifier of a labeled null. It panics if v is a
// constant.
func (v Value) NullID() int64 {
	if v.kind != KindNull {
		panic("model: NullID called on constant " + v.String())
	}
	return v.id
}

// Hash folds the value's two words into one, for callers that hash
// composite keys containing values (the chase's read-log identity)
// without rendering them. Equal values hash equal; distinct values
// collide only when their ids differ in bit 63 alone.
func (v Value) Hash() uint64 { return uint64(v.id)<<1 | uint64(v.kind) }

// String renders the value in the paper's notation: constants appear
// verbatim, labeled nulls as x<id>.
func (v Value) String() string {
	if v.kind == KindNull {
		return "x" + strconv.FormatInt(v.id, 10)
	}
	return symString(v.id)
}

// GoString renders the value unambiguously for debugging.
func (v Value) GoString() string {
	if v.kind == KindNull {
		return fmt.Sprintf("Null(%d)", v.id)
	}
	return fmt.Sprintf("Const(%q)", symString(v.id))
}

// encode writes a collision-free encoding of v used in tuple keys.
func (v Value) encode() string {
	if v.kind == KindNull {
		return "n" + strconv.FormatInt(v.id, 10)
	}
	return "c" + escapeKeySep(symString(v.id))
}

// escapeKeySep doubles the tuple-key separator byte, NUL, inside a key
// part, so that no part can render a separator followed by what looks
// like the next part. A part without NUL is returned as it is.
func escapeKeySep(s string) string {
	return strings.ReplaceAll(s, "\x00", "\x00\x00")
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
