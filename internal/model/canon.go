package model

import (
	"bytes"
	"hash/fnv"
	"slices"
	"strconv"
)

// Canonicalization renames labeled nulls to position-of-first-use
// indices, producing representations that are invariant under any
// bijective renaming of nulls. Its uses are the decision keys: the
// simulated user keys its choices on canonical context strings, the
// decision inbox records answers against them, and the chase orders
// its violation queue by canonical witness signatures. Chase nulls are
// named by (namespace, update, ordinal), so serial and concurrent runs
// name them alike and compare byte for byte; the renaming stays so
// that recorded decision keys do not change.
//
// A rendering separates values with \x01, a relation name from its
// values with \x02 and the tuples of a set with \x03. A constant
// containing one of these bytes renders it doubled, the way tuple keys
// double NUL (appendKeyPart): a separator is never followed by its own
// byte, so a doubled byte can only be a constant's. Relation names are
// identifiers and render as they are.
//
// Canonical order is byte order of these renderings. They are written
// only by appending into caller-owned buffers (AppendCanonTuple,
// AppendCanonTuples), which the chase reuses on its hot paths; a
// caller that keeps a rendering converts the bytes to a string.

// AppendCanonTuple appends t's canonical rendering to dst, its nulls
// renamed within the tuple alone. Nulls are renamed by a linear scan
// over the tuple's earlier nulls; nothing is allocated beyond dst's
// growth.
func AppendCanonTuple(dst []byte, t Tuple) []byte {
	var seen [8]Value
	dst = append(dst, t.Rel...)
	dst = append(dst, '\x02')
	dst, _ = appendCanonVals(dst, t.Vals, seen[:0])
	return dst
}

// CanonScratch is the reusable scratch space of AppendCanonTuples. The
// zero value is ready to use; a scratch serves one caller at a time.
type CanonScratch struct {
	solo  []byte
	spans []canonSpan
	ren   []Value
}

// canonSpan locates tuple i's self-contained rendering in solo.
type canonSpan struct {
	i, lo, hi int
}

// AppendCanonTuples appends the canonical rendering of the set ts to
// dst, stable under both permutation of the set and renaming of nulls
// shared across tuples: the tuples' self-contained renderings are
// written into s and sorted, and the tuples are then rendered again in
// that order under one renaming shared by the set. The sort is the
// pattern-defeating quicksort sort.Slice also runs, so tuples whose
// renderings tie land in one fixed order and the shared renaming
// numbers their nulls alike.
func AppendCanonTuples(dst []byte, ts []Tuple, s *CanonScratch) []byte {
	s.solo, s.spans = s.solo[:0], s.spans[:0]
	for i, t := range ts {
		lo := len(s.solo)
		s.solo = AppendCanonTuple(s.solo, t)
		s.spans = append(s.spans, canonSpan{i, lo, len(s.solo)})
	}
	slices.SortFunc(s.spans, func(a, b canonSpan) int {
		return bytes.Compare(s.solo[a.lo:a.hi], s.solo[b.lo:b.hi])
	})
	ren := s.ren[:0]
	for k, sp := range s.spans {
		if k > 0 {
			dst = append(dst, '\x03')
		}
		dst = append(dst, ts[sp.i].Rel...)
		dst = append(dst, '\x02')
		dst, ren = appendCanonVals(dst, ts[sp.i].Vals, ren)
	}
	s.ren = ren[:0]
	return dst
}

// appendCanonVals appends the rendering of vals under the renaming
// ren: a constant as "c:" and its payload, a null as "?" and its
// position in ren; nulls seen for the first time are appended to ren.
func appendCanonVals(dst []byte, vals []Value, ren []Value) ([]byte, []Value) {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, '\x01')
		}
		if v.IsConst() {
			dst = append(dst, "c:"...)
			dst = appendCanonConst(dst, v.ConstValue())
			continue
		}
		idx := slices.Index(ren, v)
		if idx < 0 {
			idx = len(ren)
			ren = append(ren, v)
		}
		dst = append(dst, '?')
		dst = strconv.AppendInt(dst, int64(idx), 10)
	}
	return dst, ren
}

// appendCanonConst appends a constant with its separators doubled.
func appendCanonConst(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '\x01' && s[i] <= '\x03' {
			dst = append(dst, s[start:i+1]...)
			start = i
		}
	}
	return append(dst, s[start:]...)
}

// CanonHash hashes a canonical string to a 64-bit value. It is a
// convenience for seeding deterministic pseudo-random choices.
func CanonHash(canon string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(canon))
	return h.Sum64()
}
