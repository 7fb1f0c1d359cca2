// The interpreted reference engine: the binding-map joins the slot
// runtime replaced, kept as the semantics the differential oracle, the
// recheck identity and the checker battery hold the runtime to. Its
// violations carry name-to-value maps and render them through the
// map renderer the compiled Violation.Vals format replaced. It is
// deliberately plain — a fresh binding per extension, the greedy
// most-bound atom chosen at every level, the most selective determined
// column probed — so that it is evidently right by reading. Its
// best-effort join unifies through a substitution map with undo
// closures and scans every relation in full.
package query

import (
	"maps"
	"slices"
	"strconv"
	"strings"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// refEngine evaluates queries by interpreting the mapping's atoms over
// refBinding maps. A join reads relation rel through byRel[rel] when
// byRel names it, and through snap otherwise.
type refEngine struct {
	snap  *storage.Snapshot
	byRel map[string]*storage.Snapshot
}

// snapOf returns the snapshot the join reads rel through.
func (r refEngine) snapOf(rel string) *storage.Snapshot {
	if sn, ok := r.byRel[rel]; ok {
		return sn
	}
	return r.snap
}

// refBinding is the reference's variable assignment: variable name to
// value.
type refBinding map[string]model.Value

// restrict returns the binding restricted to the given variables.
func (b refBinding) restrict(vars []string) refBinding {
	out := make(refBinding, len(vars))
	for _, v := range vars {
		if val, ok := b[v]; ok {
			out[v] = val
		}
	}
	return out
}

// refViolation is a violation as the reference finds it: the binding
// of the mapping's LHS variables and the witness.
type refViolation struct {
	TGD     *tgd.TGD
	Binding refBinding
	Witness []storage.TupleID
}

// key renders the violation in Violation.Key's layout, the binding map
// in the plan's slot order.
func (v refViolation) key() string {
	dst := append([]byte(v.TGD.Name), '|')
	for _, id := range v.Witness {
		dst = strconv.AppendUint(dst, uint64(id), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, '|')
	return string(appendBindingOrdered(dst, PlanFor(v.TGD), v.Binding))
}

// appendBindingOrdered renders a binding map in the plan's canonical
// slot order, skipping unbound slots.
func appendBindingOrdered(dst []byte, p *Plan, b refBinding) []byte {
	dst = append(dst, '{')
	first := true
	for _, name := range p.slots {
		val, ok := b[name]
		if !ok {
			continue
		}
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		dst = append(dst, name...)
		dst = append(dst, "->"...)
		dst = val.AppendString(dst)
	}
	return append(dst, '}')
}

// unifyValsAtom extends binding b by matching concrete values against
// an atom's terms. It reports false when a constant clashes or a
// variable is already bound to a different value; b itself is never
// modified.
func unifyValsAtom(vals []model.Value, a tgd.Atom, b refBinding) (refBinding, bool) {
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
			out, copied = make(refBinding, len(b)+len(a.Terms)), true
			maps.Copy(out, b)
		}
		out[term.Var] = v
	}
	return out, true
}

// candidates returns the tuple IDs that can match the atom under b: the
// smallest index bucket of a determined position, or the whole
// relation when nothing is determined.
func (r refEngine) candidates(a tgd.Atom, b refBinding) []storage.TupleID {
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
		ids := rowIDs(r.snapOf(a.Rel), a.Rel, i, val)
		if !determined || len(ids) < len(best) {
			best, determined = ids, true
		}
	}
	if determined {
		return best
	}
	return rowIDs(r.snapOf(a.Rel), a.Rel, -1, model.Value{})
}

// rowIDs returns the IDs of the visible tuples of rel whose column col
// holds v, of all of them when col < 0.
func rowIDs(snap *storage.Snapshot, rel string, col int, v model.Value) []storage.TupleID {
	rows, _ := snap.ProbeRows(rel, col, v, nil, nil)
	ids := make([]storage.TupleID, len(rows))
	for i, row := range rows {
		ids[i] = row.ID
	}
	return ids
}

// join enumerates homomorphisms of the atoms into the snapshot that
// extend b; fn receives each binding and a witness aligned with atoms,
// and returning false stops the enumeration.
func (r refEngine) join(atoms []tgd.Atom, b refBinding, fn func(refBinding, []storage.TupleID) bool) bool {
	witness := make([]storage.TupleID, len(atoms))
	done := make([]bool, len(atoms))
	var rec func(b refBinding, remaining int) bool
	rec = func(b refBinding, remaining int) bool {
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
			vals, ok := r.snapOf(a.Rel).Get(id)
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
		b = refBinding{}
	}
	return rec(b, len(atoms))
}

func (r refEngine) rhsSatisfied(t *tgd.TGD, b refBinding) bool {
	found := false
	r.join(t.RHS, b.restrict(t.FrontierVars()), func(refBinding, []storage.TupleID) bool {
		found = true
		return false
	})
	return found
}

// violations returns the violations whose LHS match extends seed.
func (r refEngine) violations(t *tgd.TGD, seed refBinding) []refViolation {
	var out []refViolation
	r.join(t.LHS, seed, func(b refBinding, w []storage.TupleID) bool {
		if !r.rhsSatisfied(t, b) {
			out = append(out, refViolation{TGD: t, Binding: b, Witness: w})
		}
		return true
	})
	return out
}

func (r refEngine) Violations(t *tgd.TGD) []refViolation { return r.violations(t, nil) }

func (r refEngine) ViolationsSeeded(t *tgd.TGD, rel string, vals []model.Value, side Side) []refViolation {
	seen := make(map[string]bool)
	var out []refViolation
	seedFrom := func(atoms []tgd.Atom, restrict bool) {
		for _, a := range atoms {
			if a.Rel != rel {
				continue
			}
			b, ok := unifyValsAtom(vals, a, refBinding{})
			if !ok {
				continue
			}
			if restrict {
				b = b.restrict(t.FrontierVars())
			}
			for _, v := range r.violations(t, b) {
				if k := v.key(); !seen[k] {
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
func (r refEngine) Recheck(v *Violation) (bool, refBinding) {
	b := refBinding{}
	for i, id := range v.Witness {
		vals, ok := r.snap.Get(id)
		if !ok {
			return false, nil
		}
		if b, ok = unifyValsAtom(vals, v.TGD.LHS[i], b); !ok {
			return false, nil
		}
	}
	if r.rhsSatisfied(v.TGD, b) {
		return false, nil
	}
	return true, b
}

func (r refEngine) CertainAnswers(q *CQ) []model.Tuple {
	var rows []model.Tuple
	r.join(q.Body, nil, func(b refBinding, _ []storage.TupleID) bool {
		if row := q.project(b); row.IsGround() {
			rows = append(rows, row)
		}
		return true
	})
	return dedupSort(rows)
}

// dedupSort is the reference's row canonicalizer: it renders each row's
// Tuple.Key, orders the rows by their keys and keeps the first of each
// run of equal keys. The engine orders rows structurally (compareVals)
// and is held to this.
func dedupSort(rows []model.Tuple) []model.Tuple {
	type keyed struct {
		key string
		row model.Tuple
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{r.Key(), r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := rows[:0]
	for i, k := range ks {
		if i == 0 || k.key != ks[i-1].key {
			out = append(out, k.row)
		}
	}
	return out
}

// project builds the answer row for a binding.
func (q *CQ) project(b map[string]model.Value) model.Tuple {
	vals := make([]model.Value, len(q.Head))
	for i, h := range q.Head {
		vals[i] = b[h]
	}
	return model.Tuple{Rel: q.Name, Vals: vals}
}

// BestEffortAnswers returns the best-effort answers: every row
// derivable when labeled nulls are allowed to unify — consistently
// within the row — with constants and with each other.
func (r refEngine) BestEffortAnswers(q *CQ) []model.Tuple {
	var rows []model.Tuple
	r.joinAtomsUnifying(q.Body, func(b map[string]model.Value, sub model.Subst) bool {
		row := q.project(b)
		row = model.Tuple{Rel: row.Rel, Vals: sub.Apply(row.Vals)}
		rows = append(rows, row)
		return true
	})
	return dedupSort(rows)
}

// joinAtomsUnifying enumerates matches of the atom conjunction under
// unification semantics: a database null may match any query constant
// or other value, with all identifications collected in a per-match
// substitution. fn receives the binding and the substitution; both are
// private copies.
func (r refEngine) joinAtomsUnifying(atoms []tgd.Atom, fn func(map[string]model.Value, model.Subst) bool) bool {
	n := len(atoms)
	done := make([]bool, n)
	scratch := map[string]model.Value{}
	sub := model.Subst{}

	// resolve follows the substitution chain to a representative.
	resolve := func(v model.Value) model.Value {
		for v.IsNull() {
			next, ok := sub[v]
			if !ok {
				return v
			}
			v = next
		}
		return v
	}
	// unite makes two values equal under the substitution, preferring
	// constants as representatives. It returns an undo closure, or nil
	// when impossible.
	unite := func(a, b model.Value) func() {
		ra, rb := resolve(a), resolve(b)
		if ra == rb {
			return func() {}
		}
		switch {
		case ra.IsNull():
			sub[ra] = rb
			return func() { delete(sub, ra) }
		case rb.IsNull():
			sub[rb] = ra
			return func() { delete(sub, rb) }
		default:
			return nil // two distinct constants
		}
	}

	var rec func(remaining int) bool
	rec = func(remaining int) bool {
		if remaining == 0 {
			// Copy binding with the substitution applied and a frozen
			// copy of the substitution itself.
			outB := make(map[string]model.Value, len(scratch))
			for k, v := range scratch {
				outB[k] = resolve(v)
			}
			outS := make(model.Subst, len(sub))
			for k, v := range sub {
				outS[k] = resolve(v)
			}
			return fn(outB, outS)
		}
		best := -1
		bestBound := -1
		for i, a := range atoms {
			if done[i] {
				continue
			}
			if bc := boundTermCount(a, scratch); bc > bestBound {
				best, bestBound = i, bc
			}
		}
		a := atoms[best]
		done[best] = true
		defer func() { done[best] = false }()
		// Unification can cross constants, so index narrowing by bound
		// constants would be unsound (a null in that column matches
		// too); scan the relation.
		for _, id := range rowIDs(r.snap, a.Rel, -1, model.Value{}) {
			vals, ok := r.snap.Get(id)
			if !ok {
				continue
			}
			var undos []func()
			var added []string
			ok = true
			for i, term := range a.Terms {
				v := vals[i]
				var want model.Value
				if term.IsVar {
					bound, isBound := scratch[term.Var]
					if !isBound {
						scratch[term.Var] = v
						added = append(added, term.Var)
						continue
					}
					want = bound
				} else {
					want = term.Const
				}
				u := unite(want, v)
				if u == nil {
					ok = false
					break
				}
				undos = append(undos, u)
			}
			if ok {
				if !rec(remaining - 1) {
					for i := len(undos) - 1; i >= 0; i-- {
						undos[i]()
					}
					undoBinds(scratch, added)
					return false
				}
			}
			for i := len(undos) - 1; i >= 0; i-- {
				undos[i]()
			}
			undoBinds(scratch, added)
		}
		return true
	}
	return rec(n)
}

// boundTermCount counts how many argument positions of the atom are
// determined under b (constants or bound variables).
func boundTermCount(a tgd.Atom, b map[string]model.Value) int {
	n := 0
	for _, term := range a.Terms {
		if !term.IsVar {
			n++
			continue
		}
		if _, ok := b[term.Var]; ok {
			n++
		}
	}
	return n
}

func undoBinds(b map[string]model.Value, added []string) {
	for _, v := range added {
		delete(b, v)
	}
}
