// The interpreted reference engine: the binding-map join the slot
// runtime replaced, kept as the semantics the differential oracle, the
// recheck identity and the checker battery hold the runtime to. It is
// deliberately plain — a fresh binding per extension, the greedy
// most-bound atom chosen at every level, the most selective determined
// column probed — so that it is evidently right by reading.
package query

import (
	"maps"
	"slices"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// refEngine evaluates queries by interpreting the mapping's atoms over
// Binding maps.
type refEngine struct{ snap *storage.Snapshot }

// unifyValsAtom extends binding b by matching concrete values against
// an atom's terms. It reports false when a constant clashes or a
// variable is already bound to a different value; b itself is never
// modified.
func unifyValsAtom(vals []model.Value, a tgd.Atom, b Binding) (Binding, bool) {
	if len(vals) != len(a.Terms) {
		return nil, false
	}
	out, copied := b, false
	for i, term := range a.Terms {
		v := vals[i]
		if !term.IsVar {
			if v != term.Const {
				return nil, false
			}
			continue
		}
		if bound, ok := out[term.Var]; ok {
			if bound != v {
				return nil, false
			}
			continue
		}
		if !copied {
			out, copied = make(Binding, len(b)+len(a.Terms)), true
			maps.Copy(out, b)
		}
		out[term.Var] = v
	}
	return out, true
}

// candidates returns the tuple IDs that can match the atom under b: the
// smallest index bucket of a determined position, or the whole
// relation when nothing is determined.
func (r refEngine) candidates(a tgd.Atom, b Binding) []storage.TupleID {
	var best []storage.TupleID
	determined := false
	for i, term := range a.Terms {
		val := term.Const
		if term.IsVar {
			bound, ok := b[term.Var]
			if !ok {
				continue
			}
			val = bound
		}
		ids := r.snap.CandidatesByValue(a.Rel, i, val, new([1]storage.TupleID))
		if !determined || len(ids) < len(best) {
			best, determined = ids, true
		}
	}
	if determined {
		return best
	}
	return r.snap.RelIDs(a.Rel)
}

// join enumerates homomorphisms of the atoms into the snapshot that
// extend b; fn receives each binding and a witness aligned with atoms,
// and returning false stops the enumeration.
func (r refEngine) join(atoms []tgd.Atom, b Binding, fn func(Binding, []storage.TupleID) bool) bool {
	witness := make([]storage.TupleID, len(atoms))
	done := make([]bool, len(atoms))
	var rec func(b Binding, remaining int) bool
	rec = func(b Binding, remaining int) bool {
		if remaining == 0 {
			return fn(b, slices.Clone(witness))
		}
		best, bestBound := -1, -1
		for i, a := range atoms {
			if !done[i] {
				if bc := boundTermCount(a, b); bc > bestBound {
					best, bestBound = i, bc
				}
			}
		}
		a := atoms[best]
		done[best] = true
		defer func() { done[best] = false }()
		for _, id := range r.candidates(a, b) {
			vals, ok := r.snap.Get(id)
			if !ok {
				continue
			}
			nb, ok := unifyValsAtom(vals, a, b)
			if !ok {
				continue
			}
			witness[best] = id
			if !rec(nb, remaining-1) {
				return false
			}
		}
		return true
	}
	if b == nil {
		b = Binding{}
	}
	return rec(b, len(atoms))
}

func (r refEngine) LHSMatches(t *tgd.TGD, seed Binding) []Match {
	var out []Match
	r.join(t.LHS, seed, func(b Binding, w []storage.TupleID) bool {
		out = append(out, Match{Binding: b, Witness: w})
		return true
	})
	return out
}

func (r refEngine) RHSSatisfied(t *tgd.TGD, b Binding) bool {
	found := false
	r.join(t.RHS, b.Restrict(t.FrontierVars()), func(Binding, []storage.TupleID) bool {
		found = true
		return false
	})
	return found
}

func (r refEngine) Violations(t *tgd.TGD, seed Binding) []Violation {
	var out []Violation
	for _, m := range r.LHSMatches(t, seed) {
		if !r.RHSSatisfied(t, m.Binding) {
			out = append(out, Violation{TGD: t, Binding: m.Binding, Witness: m.Witness})
		}
	}
	return out
}

func (r refEngine) ViolationsSeeded(t *tgd.TGD, rel string, vals []model.Value, side Side) []Violation {
	seen := make(map[string]bool)
	var out []Violation
	seedFrom := func(atoms []tgd.Atom, restrict bool) {
		for _, a := range atoms {
			if a.Rel != rel {
				continue
			}
			b, ok := unifyValsAtom(vals, a, Binding{})
			if !ok {
				continue
			}
			if restrict {
				b = b.Restrict(t.FrontierVars())
			}
			for _, v := range r.Violations(t, b) {
				if k := v.Key(); !seen[k] {
					seen[k] = true
					out = append(out, v)
				}
			}
		}
	}
	if side == SeedLHS || side == SeedBoth {
		seedFrom(t.LHS, false)
	}
	if side == SeedRHS || side == SeedBoth {
		seedFrom(t.RHS, true)
	}
	return out
}

// Recheck unifies the witness's current values atom by atom into a
// fresh binding, then probes the RHS. It reports whether the violation
// still holds, and its binding if so.
func (r refEngine) Recheck(v *Violation) (bool, Binding) {
	b := Binding{}
	for i, id := range v.Witness {
		vals, ok := r.snap.Get(id)
		if !ok {
			return false, nil
		}
		if b, ok = unifyValsAtom(vals, v.TGD.LHS[i], b); !ok {
			return false, nil
		}
	}
	if r.RHSSatisfied(v.TGD, b) {
		return false, nil
	}
	return true, b
}

func (r refEngine) CertainAnswers(q *CQ) []model.Tuple {
	var rows []model.Tuple
	r.join(q.Body, nil, func(b Binding, _ []storage.TupleID) bool {
		if row := q.project(b); row.IsGround() {
			rows = append(rows, row)
		}
		return true
	})
	return dedupSort(rows)
}
