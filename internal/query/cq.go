package query

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
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
// in the body (safety). A valid query is checked without allocating.
func (q *CQ) Validate(schema *model.Schema) error {
	if q.Name == "" {
		return fmt.Errorf("query: unnamed query")
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("query %s: empty body", q.Name)
	}
	for _, a := range q.Body {
		ar := schema.Arity(a.Rel)
		if ar < 0 {
			return fmt.Errorf("query %s: undeclared relation %s", q.Name, a.Rel)
		}
		if ar != len(a.Terms) {
			return fmt.Errorf("query %s: atom %s has arity %d, relation %s has arity %d",
				q.Name, a, len(a.Terms), a.Rel, ar)
		}
	}
	for i, h := range q.Head {
		if !q.bodyHas(h) {
			return fmt.Errorf("query %s: head variable %s does not occur in the body", q.Name, h)
		}
		if slices.Contains(q.Head[:i], h) {
			return fmt.Errorf("query %s: head variable %s repeated", q.Name, h)
		}
	}
	return nil
}

// bodyHas reports whether variable v occurs in the body.
func (q *CQ) bodyHas(v string) bool {
	for _, a := range q.Body {
		for _, term := range a.Terms {
			if term.IsVar && term.Var == v {
				return true
			}
		}
	}
	return false
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

// compareRows orders two rows exactly as bytes.Compare orders their
// Tuple.Keys, without rendering either key. It is the one row order of
// both answer semantics.
func compareRows(a, b model.Tuple) int {
	if a.Rel != b.Rel {
		return comparePart(a.Rel, b.Rel, len(a.Vals) > 0, len(b.Vals) > 0)
	}
	return compareVals(a.Vals, b.Vals)
}

// compareVals orders two rows of one relation by their values, as
// bytes.Compare orders the rows' keys. A key renders each value after a
// NUL separator: a constant as 'c' and its payload with every NUL
// doubled, a null as 'n' and its identifier in decimal. So a constant
// sorts before every null, and a row that is a prefix of another sorts
// first.
func compareVals(a, b []model.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		u, v := a[i], b[i]
		if u == v {
			continue
		}
		moreA, moreB := i+1 < len(a), i+1 < len(b)
		var c int
		switch un, vn := u.IsNull(), v.IsNull(); {
		case un != vn:
			if un {
				return 1
			}
			return -1
		case un:
			var bu, bv [20]byte
			c = comparePart(strconv.AppendInt(bu[:0], u.NullID(), 10),
				strconv.AppendInt(bv[:0], v.NullID(), 10), moreA, moreB)
		default:
			c = comparePart(u.ConstValue(), v.ConstValue(), moreA, moreB)
		}
		if c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// comparePart compares two key parts s and t as bytes.Compare compares
// the keys they start: more says whether the key goes on after the
// part, always with a NUL and then a nonzero byte. NUL escaping keeps
// the first differing byte of the parts the first differing byte of
// the keys. When one part is a prefix of the other, the longer part's
// next byte meets the shorter key's end or separator, and a NUL there
// is escaped to two, which sort after a separator's NUL and kind byte.
func comparePart[S string | []byte](s, t S, moreS, moreT bool) int {
	n := min(len(s), len(t))
	for i := 0; i < n; i++ {
		if s[i] != t[i] {
			return cmp.Compare(s[i], t[i])
		}
	}
	switch {
	case len(s) == len(t):
		return 0
	case len(s) < len(t):
		if moreS && t[n] == 0 {
			return 1
		}
		return -1
	default:
		if moreT && s[n] == 0 {
			return -1
		}
		return 1
	}
}

// cqScratch is the working memory of CertainAnswers, owned by the
// engine and reused across calls: the query's plan and join order,
// recompiled in place, the ground rows of the current answer packed
// head-width values apiece, and their sort permutation.
type cqScratch struct {
	plan Plan
	ord  joinOrder
	osc  orderScratch
	vals []model.Value
	rows int
	perm []int32
}

// Bounds of the row buffers an engine keeps between answers, 8 KiB of
// values and 2 KiB of permutation: a larger answer's buffers are
// dropped, so a long-lived engine keeps no more than the answers most
// queries return need.
const (
	maxKeptVals = 512
	maxKeptRows = 512
)

// CertainAnswers returns the certain answers of the query on the
// engine's snapshot: rows of constants that hold under every valuation
// of the labeled nulls. For conjunctive queries these are exactly the
// null-free rows of the naive evaluation, which runs on a plan and
// join order compiled into the engine's scratch, in place; none is
// cached on the query, which would keep a plan alive per query ever
// asked. The matches' ground head projections are packed into one scratch slice and ordered
// through a row permutation, so a warm engine allocates only the answer
// it returns: the rows, and one array holding all their values.
func (e *Engine) CertainAnswers(q *CQ) []model.Tuple {
	defer e.flushObs()
	if e.cq == nil {
		e.cq = new(cqScratch)
	}
	sc := e.cq
	p := &sc.plan
	p.compileCQ(q)
	r := e.getRun(p)
	r.atoms = p.lhs
	p.computeOrder(&sc.ord, &sc.osc, e.snap, false, r.shape)
	r.ord = &sc.ord
	sc.vals, sc.rows = sc.vals[:0], 0
	r.fn = srCertainRow
	r.rec(0, 0)
	e.putRun(r)
	return sc.answer(p.rowRel, len(p.head))
}

// answer sorts and deduplicates the packed rows, h values each, and
// copies the distinct ones out as rows of rel. Each row's Vals is
// capacity-capped, so appending to one never writes into the next.
func (sc *cqScratch) answer(rel string, h int) []model.Tuple {
	if sc.rows == 0 {
		return nil
	}
	vals := sc.vals
	row := func(i int32) []model.Value { return vals[int(i)*h : int(i)*h+h] }
	perm := resize(sc.perm, sc.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return compareVals(row(a), row(b)) })
	k := 1
	for _, i := range perm[1:] {
		if compareVals(row(perm[k-1]), row(i)) != 0 {
			perm[k] = i
			k++
		}
	}
	out := make([]model.Tuple, k)
	packed := make([]model.Value, k*h)
	for j, i := range perm[:k] {
		dst := packed[j*h : j*h+h : j*h+h]
		copy(dst, row(i))
		out[j] = model.Tuple{Rel: rel, Vals: dst}
	}
	// Keep no value of the answer, and no buffer past the bounds.
	clear(vals)
	sc.vals, sc.perm = vals[:0], perm[:0]
	if cap(vals) > maxKeptVals {
		sc.vals = nil
	}
	if cap(perm) > maxKeptRows {
		sc.perm = nil
	}
	return out
}

// BestEffortAnswers returns the best-effort answers: every row
// derivable when labeled nulls are allowed to unify — consistently
// within the row — with constants and with each other. Rows may
// contain nulls (facts known to exist with unknown values) and may be
// incorrect in completions that resolve the nulls differently. They
// come in the certain answers' order.
func (e *Engine) BestEffortAnswers(q *CQ) []model.Tuple {
	var rows []model.Tuple
	e.joinAtomsUnifying(q.Body, func(b map[string]model.Value, sub model.Subst) bool {
		row := q.project(b)
		row = model.Tuple{Rel: row.Rel, Vals: sub.Apply(row.Vals)}
		rows = append(rows, row)
		return true
	})
	slices.SortFunc(rows, compareRows)
	return slices.CompactFunc(rows, func(a, b model.Tuple) bool { return compareRows(a, b) == 0 })
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
