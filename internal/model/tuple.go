package model

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is a row of a relation: the relation name plus one value per
// attribute. Tuples are treated as immutable; operations that change a
// tuple return a new one.
type Tuple struct {
	Rel  string
	Vals []Value
}

// NewTuple builds a tuple from a relation name and values.
func NewTuple(rel string, vals ...Value) Tuple {
	return Tuple{Rel: rel, Vals: vals}
}

// Arity returns the number of attributes.
func (t Tuple) Arity() int { return len(t.Vals) }

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{Rel: t.Rel, Vals: vals}
}

// Equal reports exact equality (same relation, same values, with
// labeled nulls compared by identity).
func (t Tuple) Equal(u Tuple) bool {
	if t.Rel != u.Rel || len(t.Vals) != len(u.Vals) {
		return false
	}
	for i := range t.Vals {
		if t.Vals[i] != u.Vals[i] {
			return false
		}
	}
	return true
}

// Key returns a collision-free string encoding of the tuple, suitable
// as a map key. Two tuples have equal keys iff Equal reports true: the
// parts are joined by NUL and a NUL inside a part is doubled.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to dst and returns the extended slice.
func (t Tuple) AppendKey(dst []byte) []byte {
	dst = appendKeyPart(dst, t.Rel)
	for _, v := range t.Vals {
		dst = append(dst, 0)
		dst = v.appendEncoded(dst)
	}
	return dst
}

// String renders the tuple in the paper's notation, e.g.
// R(XYZ, Geneva Winery, x2).
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return t.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Nulls returns the set of labeled nulls occurring in the tuple, in
// first-occurrence order.
func (t Tuple) Nulls() []Value {
	var out []Value
	seen := make(map[Value]bool)
	for _, v := range t.Vals {
		if v.IsNull() && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// HasNull reports whether the labeled null x occurs in the tuple.
func (t Tuple) HasNull(x Value) bool {
	for _, v := range t.Vals {
		if v == x {
			return true
		}
	}
	return false
}

// IsGround reports whether the tuple contains no labeled nulls.
func (t Tuple) IsGround() bool {
	for _, v := range t.Vals {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// MoreSpecificVals reports whether values t are more specific than
// values u in the sense of Definition 2.4: the positionwise map
// u[i] -> t[i] must be a function and the identity on constants.
// The relation is reflexive, and two tuples can each be more specific
// than the other when they are equal up to a renaming of nulls.
//
// Functionality is checked by scanning the earlier positions for the
// same null rather than through a map: arities are tiny, and this runs
// once per candidate tuple on the chase's planning path, where a map
// per call dominated the allocation profile.
func MoreSpecificVals(t, u []Value) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range u {
		if u[i].IsConst() {
			if t[i] != u[i] {
				return false
			}
			continue
		}
		for j := 0; j < i; j++ {
			if u[j] == u[i] && t[j] != t[i] {
				return false
			}
		}
	}
	return true
}

// MoreSpecific reports whether tuple t is more specific than tuple u
// (Definition 2.4). Tuples over different relations or with different
// arities are incomparable.
func MoreSpecific(t, u Tuple) bool {
	if t.Rel != u.Rel {
		return false
	}
	return MoreSpecificVals(t.Vals, u.Vals)
}

// StrictlyMoreSpecific reports whether t is more specific than u and u
// is not more specific than t; i.e. t genuinely refines u.
func StrictlyMoreSpecific(t, u Tuple) bool {
	return MoreSpecific(t, u) && !MoreSpecific(u, t)
}

// Subst is a substitution on labeled nulls: a map from nulls to
// replacement values. Applying a substitution leaves constants and
// unmapped nulls untouched.
type Subst map[Value]Value

// Apply returns a copy of vals with the substitution applied. If the
// substitution changes nothing, the original slice is returned
// unchanged (no copy).
func (s Subst) Apply(vals []Value) []Value {
	changed := false
	for _, v := range vals {
		if v.IsNull() {
			if _, ok := s[v]; ok {
				changed = true
				break
			}
		}
	}
	if !changed {
		return vals
	}
	out := make([]Value, len(vals))
	for i, v := range vals {
		if v.IsNull() {
			if r, ok := s[v]; ok {
				out[i] = r
				continue
			}
		}
		out[i] = v
	}
	return out
}

// ApplyTuple returns t with the substitution applied to its values.
func (s Subst) ApplyTuple(t Tuple) Tuple {
	return Tuple{Rel: t.Rel, Vals: s.Apply(t.Vals)}
}

// Touches reports whether applying the substitution would change vals.
func (s Subst) Touches(vals []Value) bool {
	for _, v := range vals {
		if v.IsNull() {
			if _, ok := s[v]; ok {
				return true
			}
		}
	}
	return false
}

// Compose returns a substitution equivalent to applying s first and
// then t, as a single map.
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for k, v := range s {
		if v.IsNull() {
			if r, ok := t[v]; ok {
				out[k] = r
				continue
			}
		}
		out[k] = v
	}
	for k, v := range t {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// String renders the substitution deterministically, e.g.
// {x1->Ithaca, x2->x7}.
func (s Subst) String() string {
	keys := make([]Value, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].NullID() < keys[j].NullID() })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s->%s", k, s[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Unifier computes the substitution that collapses tuple t onto the
// more specific tuple target, as performed by the frontier operation
// "unify" (§2.2). Every labeled null of t is mapped to the value at
// the same position in target. The second return value is false when
// target is not more specific than t (no consistent unifier exists).
//
// The returned substitution never maps a null to itself.
func Unifier(t, target Tuple) (Subst, bool) {
	if !MoreSpecific(target, t) {
		return nil, false
	}
	s := make(Subst)
	for i, v := range t.Vals {
		if !v.IsNull() {
			continue
		}
		w := target.Vals[i]
		if v == w {
			continue
		}
		if prev, ok := s[v]; ok && prev != w {
			// Cannot happen when target is more specific, but keep the
			// check so Unifier is safe on arbitrary inputs.
			return nil, false
		}
		s[v] = w
	}
	return s, true
}
