package model

import (
	"bytes"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Canonicalization renames labeled nulls to position-of-first-use
// indices, producing representations that are invariant under any
// bijective renaming of nulls. Two uses:
//
//   - the simulated user keys its decisions on canonical context
//     strings, so that replays after an abort, and serial reference
//     executions in tests, make the same choices even though fresh
//     nulls carry different identifiers; and
//   - the serializability checker compares databases up to null
//     renaming.
//
// A rendering separates values with \x01, a relation name from its
// values with \x02 and the tuples of a set with \x03. A constant
// containing one of these bytes renders it doubled, the way tuple keys
// double NUL (appendKeyPart): a separator is never followed by its own
// byte, so a doubled byte can only be a constant's. Relation names are
// identifiers and render as they are.
//
// Canonical order is byte order of these renderings. The string forms
// (CanonVals, CanonTuple, CanonTuples) define them; the append forms
// (AppendCanonTuple, AppendCanonTuples) write the same bytes into
// reused buffers for the chase's hot paths.

// CanonVals renders vals with nulls renamed to ?0, ?1, ... in order of
// first occurrence, extending the supplied renaming map (which may be
// nil for a self-contained rendering).
func CanonVals(vals []Value, ren map[Value]int) string {
	local := ren
	if local == nil {
		local = make(map[Value]int)
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v.IsConst() {
			parts[i] = "c:" + escapeCanonSep(v.ConstValue())
			continue
		}
		idx, ok := local[v]
		if !ok {
			idx = len(local)
			local[v] = idx
		}
		parts[i] = "?" + strconv.Itoa(idx)
	}
	return strings.Join(parts, "\x01")
}

// CanonTuple renders a tuple canonically (self-contained renaming).
func CanonTuple(t Tuple) string {
	return t.Rel + "\x02" + CanonVals(t.Vals, nil)
}

// CanonTuples renders a set of tuples canonically and
// order-insensitively. The tuples are first rendered with
// self-contained renamings, sorted, and then re-rendered with a shared
// renaming in sorted order, which makes the result stable under both
// permutation of the set and renaming of nulls shared across tuples.
func CanonTuples(ts []Tuple) string {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	solo := make([]string, len(ts))
	for i, t := range ts {
		solo[i] = CanonTuple(t)
	}
	sort.Slice(idx, func(a, b int) bool { return solo[idx[a]] < solo[idx[b]] })
	ren := make(map[Value]int)
	parts := make([]string, len(ts))
	for i, j := range idx {
		parts[i] = ts[j].Rel + "\x02" + CanonVals(ts[j].Vals, ren)
	}
	return strings.Join(parts, "\x03")
}

// AppendCanonTuple appends CanonTuple(t)'s bytes to dst. Nulls are
// renamed by a linear scan over the tuple's earlier nulls; nothing is
// allocated beyond dst's growth.
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

// AppendCanonTuples appends CanonTuples(ts)'s bytes to dst. The
// self-contained renderings are written into s and sorted with the
// same pattern-defeating quicksort CanonTuples' sort.Slice runs, so
// tuples whose renderings tie land in the same order and the shared
// renaming numbers their nulls alike.
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

// appendCanonVals appends CanonVals' rendering of vals under the
// renaming ren, a null's index being its position there; nulls seen
// for the first time are appended to ren.
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

// escapeCanonSep doubles the canonical separators inside a constant.
// A constant without them is returned as it is.
func escapeCanonSep(s string) string {
	if !strings.ContainsAny(s, "\x01\x02\x03") {
		return s
	}
	return string(appendCanonConst(nil, s))
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
