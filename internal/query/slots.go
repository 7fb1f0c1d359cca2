// The slot runtime: executes compiled plans (plan.go) against a
// snapshot. Bindings live in a register file — a slot write is one
// slice store, and a failed or exhausted extension is simply left
// behind: the join order fixes which slots are bound at every step, so
// no step reads a register before the step that binds it has written
// it. No undo lists, no map deletes, no string hashing, no bound set.
// Candidate narrowing probes exactly the one precomputed index column
// per join step.
package query

import (
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
	save    []model.Value
	witness []storage.TupleID
	// shape is scratch for the seed shape the caller builds before
	// choosing an order.
	shape slotSet

	// fn receives each complete match; returning false stops the
	// enumeration. An LHS match binds the slots Plan.matched names for
	// r.ord.shape.
	fn func(r *slotRun) bool

	// Callback state, valid for one evaluation:
	found  bool     // srExists / srFirstViolation / srSameAnswer output
	dedup  bool     // srViolation: dedup through e.seen
	answer string   // srSameAnswer: the recorded single-violation key
	rhsRun *slotRun // nested RHS existence probe, sharing regs
	vout   *[]Violation
	mout   *[]Match
	rows   *[]model.Tuple
}

// getRun pops a pooled run shaped for the plan with an empty seed
// shape; witness, register and shape slices are reused across
// evaluations (the save area is sized on demand, see rhsHolds).
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
	r.dedup = false
	r.answer = ""
	r.rhsRun = nil
	r.vout = nil
	r.mout = nil
	r.rows = nil
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
// argument position of the step in the order's bind bits.
func (r *slotRun) rec(level int, pos int32) bool {
	if level == len(r.ord.steps) {
		return r.fn(r)
	}
	st := r.ord.steps[level]
	a := &r.atoms[st.atom]
	snap := r.e.snap
	var cands []storage.TupleID
	var one [1]storage.TupleID // a single candidate, this level's own
	if st.probe >= 0 {
		td := &a.terms[st.probe]
		pv := td.cval
		if td.slot >= 0 {
			pv = r.regs[td.slot]
		}
		cands = snap.CandidatesByValue(a.rel, int(st.probe), pv, &one)
		r.e.pendProbes++
	} else {
		cands = snap.RelIDs(a.rel)
	}
	r.e.pendSteps += int64(len(cands))
	for _, id := range cands {
		vals, ok := snap.Get(id)
		if !ok || !r.match(a.terms, pos, vals) {
			continue
		}
		r.witness[st.atom] = id
		if !r.rec(level+1, pos+int32(len(a.terms))) {
			return false
		}
	}
	return true
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

// srCollectMatch materializes a Match from the registers.
func srCollectMatch(r *slotRun) bool {
	*r.mout = append(*r.mout, Match{
		Binding: r.p.bindingFromRegs(r.regs, r.ord.shape),
		Witness: append([]storage.TupleID(nil), r.witness...),
	})
	return true
}

// srCertainRow projects a conjunctive query's match onto its head and
// keeps the row when it is ground.
func srCertainRow(r *slotRun) bool {
	for _, s := range r.p.head {
		if r.regs[s].IsNull() {
			return true
		}
	}
	vals := make([]model.Value, len(r.p.head))
	for i, s := range r.p.head {
		vals[i] = r.regs[s]
	}
	*r.rows = append(*r.rows, model.Tuple{Rel: r.p.rowRel, Vals: vals})
	return true
}

// rhsHolds runs the nested RHS existence probe for a complete LHS
// match. The nested run shares the parent's register file: the
// frontier slots are bound, the existential slots bind freely, and
// what the probe wrote is usually dead the moment it returns because
// the parent never reads it — the compiled replacement for
// Restrict-to-frontier plus a fresh binding map. The exception is a
// seed that binds an existential variable: the parent's match covers
// that slot but the probe must not be constrained by it and may
// overwrite it, so the registers are saved around the probe and
// restored before the parent renders its binding or dedup key.
func rhsHolds(r *slotRun) bool {
	rr := r.rhsRun
	rr.found = false
	clobbers := false
	for w, bits := range r.ord.shape {
		clobbers = clobbers || bits&r.p.exist[w] != 0
	}
	if !clobbers {
		rr.rec(0, 0)
		return rr.found
	}
	// Only a seed that binds an existential needs the save area; the
	// chase's seeded queries never do.
	r.save = resize(r.save, len(r.regs))
	copy(r.save, r.regs)
	rr.rec(0, 0)
	copy(r.regs, r.save)
	return rr.found
}

// srViolation is the seeded violation query's match callback: a
// complete LHS match with no RHS support is a violation. The dedup
// key is rendered into the engine's reusable buffer and checked
// against the seen set without allocating; only a genuinely new
// violation materializes a Binding, witness copy, and key string.
func srViolation(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	e := r.e
	if r.dedup {
		e.keyBuf = r.appendKey(e.keyBuf[:0])
		if e.seen[string(e.keyBuf)] {
			return true
		}
		if e.seen == nil {
			e.seen = make(map[string]bool)
		}
		e.seen[string(e.keyBuf)] = true
	}
	*r.vout = append(*r.vout, Violation{
		TGD:     r.p.t,
		Binding: r.p.bindingFromRegs(r.regs, r.ord.shape),
		Witness: append([]storage.TupleID(nil), r.witness...),
	})
	return true
}

// srFirstViolation stops the enumeration at the first violation; the
// compiled core of Satisfied and of the empty-answer conflict check.
func srFirstViolation(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	r.found = true
	return false
}

// srSameAnswer compares each violation with a recorded single-violation
// answer in the engine's key buffer, building no string: found reports
// whether the last violation was the recorded one (the same violation
// reached through another seed atom matches again), and the first that
// is not stops the enumeration.
func srSameAnswer(r *slotRun) bool {
	if rhsHolds(r) {
		return true
	}
	e := r.e
	e.keyBuf = r.appendKey(e.keyBuf[:0])
	r.found = string(e.keyBuf) == r.answer
	return r.found
}

// appendKey renders the current violation's key from the registers:
// the bytes Violation.appendKey produces once it is materialised.
func (r *slotRun) appendKey(dst []byte) []byte {
	return appendKeyParts(dst, r.p, r.witness, func(dst []byte) []byte {
		return appendBindingSlots(dst, r.p, r.regs, r.ord.shape)
	})
}

// appendBindingSlots renders the registers of a complete LHS match
// extending the seed shape in canonical slot order — the same bytes
// Violation.appendKey produces from the materialized Binding map,
// computed here without building the map.
func appendBindingSlots(dst []byte, p *Plan, regs []model.Value, shape slotSet) []byte {
	dst = append(dst, '{')
	first := true
	for s, name := range p.slots {
		if !p.matched(shape, s) {
			continue
		}
		if !first {
			dst = append(dst, ", "...)
		}
		first = false
		dst = append(dst, name...)
		dst = append(dst, "->"...)
		dst = appendValue(dst, regs[s])
	}
	return append(dst, '}')
}
