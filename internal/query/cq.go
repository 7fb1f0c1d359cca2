package query

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"youtopia/internal/model"
	"youtopia/internal/storage"
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
//
// Both run on the compiled plan and slot runtime (plan.go, slots.go).
// A best-effort match unifies through a trail of (null, representative)
// pairs: uniting a with b maps a's representative to b's when it is a
// null, and otherwise b's to a's. When two nulls unify, the order the
// atoms are matched in decides which one a row shows, so that order
// must not depend on the data: it is chosen without statistics, and
// the same facts give the same answer whatever the relations' sizes.

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

// cqScratch is the working memory of both answer semantics, owned by
// the engine and reused across calls: the query's plan and join order,
// recompiled in place, the rows of the current answer packed head-width
// values apiece, their sort permutation, and the best-effort join's
// unification trail.
type cqScratch struct {
	plan  Plan
	ord   joinOrder
	osc   orderScratch
	vals  []model.Value
	rows  int
	perm  []int32
	trail []nullRep
}

// nullRep is one unification on the trail: null now resolves through
// rep.
type nullRep struct{ null, rep model.Value }

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
	r := e.cqRun(q, e.snap)
	r.fn = srCertainRow
	r.rec(0, 0)
	e.putRun(r)
	return e.cq.answer(q.Name, len(q.Head))
}

// cqRun compiles q into the engine's scratch and returns a pooled run
// over its body, in the join order stats' cardinalities choose; a nil
// stats chooses it without statistics.
func (e *Engine) cqRun(q *CQ, stats *storage.Snapshot) *slotRun {
	if e.cq == nil {
		e.cq = new(cqScratch)
	}
	sc := e.cq
	p := &sc.plan
	p.compileCQ(q)
	r := e.getRun(p)
	r.atoms = p.lhs
	p.computeOrder(&sc.ord, &sc.osc, stats, false, r.shape)
	r.ord = &sc.ord
	sc.vals, sc.rows = sc.vals[:0], 0
	return r
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
// incorrect in completions that resolve the nulls differently. A row
// shows each head variable's representative: uniting a with b maps
// a's representative to b's when it is a null, and otherwise b's to
// a's. Which of two unified nulls a row shows thus depends on the join
// order, so the order is chosen without statistics — most determined
// atom first, the lowest index on ties — and the answer does not
// change with the relations' sizes. Rows come in the certain answers'
// order, and a warm engine allocates only the answer, as for those.
func (e *Engine) BestEffortAnswers(q *CQ) []model.Tuple {
	defer e.flushObs()
	r := e.cqRun(q, nil)
	r.recUnifying(0, 0)
	e.putRun(r)
	sc := e.cq
	clear(sc.trail[:cap(sc.trail)]) // keep no value of the answer
	return sc.answer(q.Name, len(q.Head))
}

// recUnifying enumerates the best-effort matches of the steps from
// level on; pos is the first argument position of the step in the
// order's bind bits. A null may match any value, so an index probe by
// value would miss candidates: every step scans its relation, keeping
// on the engine's row stack the rows that unify. A candidate's
// unifications are taken back off the trail before the next, both when
// the scan tests it and when the level walks it.
func (r *slotRun) recUnifying(level int, pos int32) {
	sc := r.e.cq
	if level == len(r.ord.steps) {
		for _, s := range r.p.head {
			sc.vals = append(sc.vals, sc.resolve(r.regs[s]))
		}
		sc.rows++
		return
	}
	a := &r.atoms[r.ord.steps[level].atom]
	e := r.e
	mark := len(sc.trail)
	base := len(e.rows)
	rows, n := e.snap.ProbeRows(a.rel, -1, model.Value{}, e.rows, func(vals []model.Value) (bool, bool) {
		ok := r.matchUnifying(a.terms, pos, vals)
		sc.trail = sc.trail[:mark]
		return ok, false
	})
	e.rows = rows
	top := len(rows)
	e.pendSteps += int64(n)
	e.pendMatched += int64(top - base)
	for i := base; i < top; i++ {
		r.matchUnifying(a.terms, pos, e.rows[i].Vals)
		r.recUnifying(level+1, pos+int32(len(a.terms)))
		sc.trail = sc.trail[:mark]
	}
	e.popRows(base)
}

// matchUnifying is match under unification: the slots the step binds
// are written, and every other position unites its constant or bound
// value with the candidate's.
func (r *slotRun) matchUnifying(terms []termDesc, pos int32, vals []model.Value) bool {
	if len(vals) != len(terms) {
		return false
	}
	sc := r.e.cq
	for i := range terms {
		td := &terms[i]
		want := td.cval
		if td.slot >= 0 {
			if r.ord.binds.has(pos + int32(i)) {
				r.regs[td.slot] = vals[i]
				continue
			}
			want = r.regs[td.slot]
		}
		if !sc.unite(want, vals[i]) {
			return false
		}
	}
	return true
}

// unite makes a and b equal on the trail: a's representative maps to
// b's when it is a null, otherwise b's maps to a's. Two distinct
// constants do not unify.
func (sc *cqScratch) unite(a, b model.Value) bool {
	ra, rb := sc.resolve(a), sc.resolve(b)
	switch {
	case ra == rb:
	case ra.IsNull():
		sc.trail = append(sc.trail, nullRep{ra, rb})
	case rb.IsNull():
		sc.trail = append(sc.trail, nullRep{rb, ra})
	default:
		return false
	}
	return true
}

// resolve returns v's representative. Only a representative is ever
// mapped, and its own representative is mapped only by a later pair, so
// one pass over the trail follows the whole chain.
func (sc *cqScratch) resolve(v model.Value) model.Value {
	for _, u := range sc.trail {
		if u.null == v {
			v = u.rep
		}
	}
	return v
}
