package query

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"youtopia/internal/model"
	"youtopia/internal/tgd"
)

// This file implements the query side of Youtopia (§1.2 of the paper):
// conjunctive queries over a repository whose data is incomplete
// (labeled nulls) and possibly inconsistent, under two semantics —
//
//   - a certain semantics "that guarantees correctness while
//     potentially omitting some results": the classical certain
//     answers of a conjunctive query over a naive table, computed by
//     naive evaluation (nulls join like ordinary values) followed by
//     dropping rows that still contain nulls; and
//
//   - a best-effort semantics "that includes all potentially relevant
//     results at the risk of some incorrectness": evaluation in which
//     a labeled null may additionally unify with any constant (or
//     other null), consistently within each result row — every answer
//     that holds in at least one completion of the nulls reachable by
//     per-row unification.

// CQ is a conjunctive query: distinguished head variables over a body
// of relational atoms, written q(x, y) <- A(x, z), T(z, y).
type CQ struct {
	Name string
	Head []string
	Body []tgd.Atom
}

// Validate checks the query against a schema: body atoms must match
// declared relations and arities, and every head variable must occur
// in the body (safety).
func (q *CQ) Validate(schema *model.Schema) error {
	if q.Name == "" {
		return fmt.Errorf("query: unnamed query")
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("query %s: empty body", q.Name)
	}
	bodyVars := make(map[string]bool)
	for _, a := range q.Body {
		ar := schema.Arity(a.Rel)
		if ar < 0 {
			return fmt.Errorf("query %s: undeclared relation %s", q.Name, a.Rel)
		}
		if ar != len(a.Terms) {
			return fmt.Errorf("query %s: atom %s has arity %d, relation %s has arity %d",
				q.Name, a, len(a.Terms), a.Rel, ar)
		}
		for _, v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	seen := make(map[string]bool)
	for _, h := range q.Head {
		if !bodyVars[h] {
			return fmt.Errorf("query %s: head variable %s does not occur in the body", q.Name, h)
		}
		if seen[h] {
			return fmt.Errorf("query %s: head variable %s repeated", q.Name, h)
		}
		seen[h] = true
	}
	return nil
}

// String renders the query, e.g. q(x, y) <- A(x, z), T(z, y).
func (q *CQ) String() string {
	atoms := make([]string, len(q.Body))
	for i, a := range q.Body {
		atoms[i] = a.String()
	}
	return fmt.Sprintf("%s(%s) <- %s", q.Name, strings.Join(q.Head, ", "),
		strings.Join(atoms, ", "))
}

// project builds the answer row for a binding.
func (q *CQ) project(b map[string]model.Value) model.Tuple {
	vals := make([]model.Value, len(q.Head))
	for i, h := range q.Head {
		vals[i] = b[h]
	}
	return model.Tuple{Rel: q.Name, Vals: vals}
}

// dedupSort removes duplicate rows and orders them canonically, by
// Tuple.Key, rendering each row's key once.
func dedupSort(rows []model.Tuple) []model.Tuple {
	var a keyArena
	return a.dedupSort(rows)
}

// keyArena is dedupSort's reusable scratch: the rows' keys
// (Tuple.AppendKey) back to back in buf, one span per row.
type keyArena struct {
	buf   []byte
	spans []keySpan
}

// keySpan locates one row's key in keyArena.buf.
type keySpan struct {
	lo, hi int
	row    model.Tuple
}

// dedupSort is the package-level dedupSort rendering into the arena;
// the rows are reordered in place.
func (a *keyArena) dedupSort(rows []model.Tuple) []model.Tuple {
	buf, spans := a.buf[:0], a.spans[:0]
	for _, r := range rows {
		lo := len(buf)
		buf = r.AppendKey(buf)
		spans = append(spans, keySpan{lo, len(buf), r})
	}
	key := func(sp keySpan) []byte { return buf[sp.lo:sp.hi] }
	slices.SortFunc(spans, func(x, y keySpan) int { return bytes.Compare(key(x), key(y)) })
	out := rows[:0]
	for i, sp := range spans {
		if i == 0 || !bytes.Equal(key(sp), key(spans[i-1])) {
			out = append(out, sp.row)
		}
	}
	// The arena must not keep the rows alive, nor, on an engine that
	// outlives the query, the buffers of an answer larger than the
	// bounds. An answer that outgrew the kept spans left rows in them
	// before append moved on.
	clear(spans)
	if cap(spans) <= maxArenaRows && cap(buf) <= maxArenaBytes {
		a.buf, a.spans = buf, spans[:0]
	} else {
		clear(a.spans[:cap(a.spans)])
	}
	return out
}

// Bounds of the buffers a keyArena keeps between answers.
const (
	maxArenaRows  = 64
	maxArenaBytes = 4 << 10
)

// CertainAnswers returns the certain answers of the query on the
// engine's snapshot: rows of constants that hold under every valuation
// of the labeled nulls. For conjunctive queries these are exactly the
// null-free rows of the naive evaluation, which runs on a plan compiled
// for this call. The plan is not cached on the query: one plan and
// order per call costs less than keeping them alive between calls.
func (e *Engine) CertainAnswers(q *CQ) []model.Tuple {
	defer e.flushObs()
	p := compileCQ(q)
	r := e.getRun(p)
	r.atoms = p.lhs
	r.ord = p.computeOrder(e.snap, false, r.shape)
	var rows []model.Tuple
	r.fn, r.rows = srCertainRow, &rows
	r.rec(0, 0)
	e.putRun(r)
	return e.keys.dedupSort(rows)
}

// BestEffortAnswers returns the best-effort answers: every row
// derivable when labeled nulls are allowed to unify — consistently
// within the row — with constants and with each other. Rows may
// contain nulls (facts known to exist with unknown values) and may be
// incorrect in completions that resolve the nulls differently.
func (e *Engine) BestEffortAnswers(q *CQ) []model.Tuple {
	var rows []model.Tuple
	e.joinAtomsUnifying(q.Body, func(b map[string]model.Value, sub model.Subst) bool {
		row := q.project(b)
		row = model.Tuple{Rel: row.Rel, Vals: sub.Apply(row.Vals)}
		rows = append(rows, row)
		return true
	})
	return e.keys.dedupSort(rows)
}

// joinAtomsUnifying enumerates matches of the atom conjunction under
// unification semantics: a database null may match any query constant
// or other value, with all identifications collected in a per-match
// substitution. fn receives the binding and the substitution; both are
// private copies.
func (e *Engine) joinAtomsUnifying(atoms []tgd.Atom, fn func(map[string]model.Value, model.Subst) bool) bool {
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
		for _, id := range e.snap.RelIDs(a.Rel) {
			vals, ok := e.snap.Get(id)
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
