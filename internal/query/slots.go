// The slot runtime: executes compiled plans (plan.go) against a
// snapshot. Variable assignments live in a register file — a slot
// write is one slice store, and a failed or exhausted extension is
// simply left behind: the join order fixes which slots are bound at
// every step, so no step reads a register before the step that binds
// it has written it. No undo lists, no map deletes, no string hashing,
// no bound set. Candidate narrowing probes exactly the one precomputed
// index column per join step. A violation's values are the register
// file's LHS prefix, regs[:nLHS], copied out as Violation.Vals in the
// same slot order; keys render from either with one function.
package query

import (
	"slices"

	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// slotRun is one in-flight compiled join: a plan side's atoms in their
// static order, the register file, and the callback state. Runs are
// pooled on the engine; callbacks are package-level functions wired
// into the fn field (never closures), so a steady-state evaluation
// that finds nothing performs zero heap allocations.
type slotRun struct {
	e       *Engine
	p       *Plan
	atoms   []planAtom
	ord     *joinOrder
	regs    []model.Value
	witness []storage.TupleID
	// shape is scratch for the seed shape the caller builds before
	// choosing an order.
	shape slotSet

	// fn receives each complete match; returning false stops the
	// enumeration. A complete LHS match binds regs[:p.nLHS].
	fn func(r *slotRun) bool

	// first marks a run that stops at its first complete match
	// (srExists): its last step keeps one row.
	first bool

	// Callback state, valid for one evaluation:
	found  bool           // srExists / srFirstViolation / srSameAnswer output
	dedup  bool           // srViolation: dedup through e.seen
	answer *ViolationRead // srSameAnswer: the read whose one violation to match
	rhsRun *slotRun       // nested RHS existence probe, sharing regs
	vout   *[]Violation
}

// getRun pops a pooled run shaped for the plan with an empty seed
// shape; witness, register and shape slices are reused across
// evaluations.
func (e *Engine) getRun(p *Plan) *slotRun {
	var r *slotRun
	if k := len(e.runPool); k > 0 {
		r = e.runPool[k-1]
		e.runPool = e.runPool[:k-1]
	} else {
		r = &slotRun{}
	}
	r.e = e
	r.p = p
	r.regs = resize(r.regs, len(p.slots))
	r.witness = resize(r.witness, max(len(p.lhs), len(p.rhs)))
	r.shape = resize(r.shape, p.words())
	clear(r.shape)
	return r
}

// resize returns s with length n, reallocating only when it lacks the
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// putRun returns a run to the pool, dropping callback state.
func (e *Engine) putRun(r *slotRun) {
	r.fn = nil
	r.first = false
	r.dedup = false
	r.answer = nil
	r.rhsRun = nil
	r.vout = nil
	e.runPool = append(e.runPool, r)
}

// side selects the run's atom list and static order for a seed shape.
func (r *slotRun) side(rhs bool, shape slotSet) {
	if rhs {
		r.atoms = r.p.rhs
	} else {
		r.atoms = r.p.lhs
	}
	r.witness = r.witness[:len(r.atoms)]
	r.ord = r.p.orderFor(r.e.snap, rhs, shape)
}

// rec enumerates matches of the steps from level on; pos is the first
// argument position of the step in the order's bind bits. The step's
// probe copies the candidates that match onto the engine's row stack
// under one read lock, and the level walks its own range of the
// stack, re-matching each row to bind its slots, before popping it.
func (r *slotRun) rec(level int, pos int32) bool {
	if level == len(r.ord.steps) {
		return r.fn(r)
	}
	st := r.ord.steps[level]
	a := &r.atoms[st.atom]
	e := r.e
	col, pv := -1, model.Value{}
	if st.probe >= 0 {
		td := &a.terms[st.probe]
		col, pv = int(st.probe), td.cval
		if td.slot >= 0 {
			pv = r.regs[td.slot]
		}
		e.pendProbes++
	}
	last := r.first && level == len(r.ord.steps)-1
	base := len(e.rows)
	rows, n := e.snap.ProbeRows(a.rel, col, pv, e.rows, func(vals []model.Value) (bool, bool) {
		ok := r.match(a.terms, pos, vals)
		return ok, ok && last
	})
	e.rows = rows
	top := len(rows)
	e.pendSteps += int64(n)
	more := true
	for i := base; i < top && more; i++ {
		row := e.rows[i]
		e.pendMatched++
		r.match(a.terms, pos, row.Vals)
		r.witness[st.atom] = row.ID
		more = r.rec(level+1, pos+int32(len(a.terms)))
	}
	e.popRows(base)
	return more
}

// maxStackRows bounds the row stack an engine keeps between
// enumerations, 16 KiB: the bottom level drops an array grown past it,
// so one outsized scan does not stay with a long-lived engine.
const maxStackRows = 512

// popRows pops the row stack down to base, clearing the popped rows so
// that an idle stack keeps no value array alive.
func (e *Engine) popRows(base int) {
	clear(e.rows[base:])
	e.rows = e.rows[:base]
	if base == 0 && cap(e.rows) > maxStackRows {
		e.rows = nil
	}
}

// match runs a candidate's values through a step's argument positions:
// constants and already-bound slots must agree, the slots the step
// binds are written.
func (r *slotRun) match(terms []termDesc, pos int32, vals []model.Value) bool {
	if len(vals) != len(terms) {
		return false
	}
	for i := range terms {
		td := &terms[i]
		switch {
		case td.slot < 0:
			if vals[i] != td.cval {
				return false
			}
		case r.ord.binds.has(pos + int32(i)):
			r.regs[td.slot] = vals[i]
		case r.regs[td.slot] != vals[i]:
			return false
		}
	}
	return true
}

// srExists flags that the side has at least one complete match.
func srExists(r *slotRun) bool {
	r.found = true
	return false
}

// srCertainRow appends a conjunctive query's match, projected onto its
// head, to the engine's packed answer rows when the projection is
// ground.
func srCertainRow(r *slotRun) bool {
	for _, s := range r.p.head {
		if r.regs[s].IsNull() {
			return true
		}
	}
	sc := r.e.cq
	for _, s := range r.p.head {
		sc.vals = append(sc.vals, r.regs[s])
	}
	sc.rows++
	return true
}

// rhsHolds runs the nested RHS existence probe for a complete LHS
// match. The nested run shares the parent's register file: the
// frontier slots are bound, and the probe writes only the existential
// slots, which lie past the LHS variables' and which the parent never
// reads.
func rhsHolds(r *slotRun) bool {
	rr := r.rhsRun
	rr.found = false
	rr.rec(0, 0)
	return rr.found
}

// srViolation is the seeded violation query's match callback: a
// complete LHS match with no RHS support is a violation. Dedup hashes
// the witness into the engine's reused index (witness hash to position
// in *r.vout; two witnesses with one hash probe linearly, the second
// under hash+1) and compares against the violation already emitted
// there, so a duplicate allocates nothing and only a genuinely new
// violation copies out its values and witness. The values are a
// function of the witness, and are compared anyway.
func srViolation(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	e := r.e
	if r.dedup {
		vals := r.regs[:r.p.nLHS]
		h := witnessHash(r.witness)
		for ; ; h++ {
			i, taken := e.seen[h]
			if !taken {
				break
			}
			if v := &(*r.vout)[i]; v.TGD == r.p.t && slices.Equal(v.Witness, r.witness) && slices.Equal(v.Vals, vals) {
				return true
			}
		}
		if e.seen == nil {
			e.seen = make(map[uint64]int32)
		}
		e.seen[h] = int32(len(*r.vout))
	}
	*r.vout = append(*r.vout, Violation{
		TGD:     r.p.t,
		Vals:    slices.Clone(r.regs[:r.p.nLHS]),
		Witness: slices.Clone(r.witness),
	})
	return true
}

// witnessHash is FNV-1a over a witness's tuple IDs.
func witnessHash(w []storage.TupleID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range w {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}

// srFirstViolation stops the enumeration at the first violation; the
// compiled core of the empty-answer conflict check.
func srFirstViolation(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	r.found = true
	return false
}

// srSameAnswer compares each violation with a recorded single-violation
// answer field by field, in the registers: found reports whether the
// last violation was the recorded one (the same violation reached
// through another seed atom matches again), and the first that is not
// stops the enumeration.
func srSameAnswer(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	q := r.answer
	r.found = slices.Equal(r.witness, q.witness) && slices.Equal(r.regs[:r.p.nLHS], q.vals)
	return r.found
}
