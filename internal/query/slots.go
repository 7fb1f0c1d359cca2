// The slot runtime: executes compiled plans (plan.go) against a
// snapshot. The register file replaces the interpreted engine's
// binding maps — a slot write is one slice store plus one bitmask OR,
// and undoing a failed extension is dropping the local mask copy; no
// undo lists, no map deletes, no string hashing. Candidate narrowing
// probes exactly the one precomputed index column per join step.
package query

import (
	"math/bits"

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

	// fn receives each complete match; returning false stops the
	// enumeration.
	fn func(r *slotRun, bound uint64) bool

	// Callback state, valid for one evaluation:
	found  bool     // srExists / srFirstViolation / srSameAnswer output
	dedup  bool     // srViolation: dedup through e.seen
	answer string   // srSameAnswer: the recorded single-violation key
	rhsRun *slotRun // nested RHS existence probe, sharing regs
	vout   *[]Violation
	mout   *[]Match
}

// getRun pops a pooled run shaped for the plan; witness and register
// slices are reused across evaluations (the save area is sized on
// demand, see rhsHolds).
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
	if cap(r.regs) < len(p.slots) {
		r.regs = make([]model.Value, len(p.slots))
	}
	r.regs = r.regs[:len(p.slots)]
	n := len(p.lhs)
	if len(p.rhs) > n {
		n = len(p.rhs)
	}
	if cap(r.witness) < n {
		r.witness = make([]storage.TupleID, n)
	}
	return r
}

// putRun returns a run to the pool, dropping callback state.
func (e *Engine) putRun(r *slotRun) {
	r.fn = nil
	r.dedup = false
	r.answer = ""
	r.rhsRun = nil
	r.vout = nil
	r.mout = nil
	e.runPool = append(e.runPool, r)
}

// side selects the run's atom list and static order for a seed shape.
func (r *slotRun) side(rhs bool, mask uint64) {
	if rhs {
		r.atoms = r.p.rhs
	} else {
		r.atoms = r.p.lhs
	}
	r.witness = r.witness[:len(r.atoms)]
	r.ord = r.p.orderFor(r.e.snap, rhs, mask)
}

// rec enumerates matches of the remaining atoms. bound travels by
// value: a failed extension or an exhausted branch abandons its mask
// copy and the registers it wrote become unreachable garbage — the
// slot runtime's whole undo mechanism.
func (r *slotRun) rec(level int, bound uint64) bool {
	if level == len(r.ord.seq) {
		return r.fn(r, bound)
	}
	ai := r.ord.seq[level]
	a := &r.atoms[ai]
	snap := r.e.snap
	var cands []storage.TupleID
	if pc := r.ord.probe[level]; pc >= 0 {
		td := &a.terms[pc]
		pv := td.cval
		if td.slot >= 0 {
			pv = r.regs[td.slot]
		}
		cands = snap.CandidatesByValue(a.rel, int(pc), pv)
		r.e.pendProbes++
	} else {
		cands = snap.RelIDs(a.rel)
	}
	r.e.pendSteps += int64(len(cands))
	for _, id := range cands {
		vals, ok := snap.Get(id)
		if !ok || len(vals) != len(a.terms) {
			continue
		}
		nb := bound
		match := true
		for ci := range a.terms {
			td := &a.terms[ci]
			v := vals[ci]
			if td.slot < 0 {
				if v != td.cval {
					match = false
					break
				}
			} else if nb>>uint(td.slot)&1 == 1 {
				if r.regs[td.slot] != v {
					match = false
					break
				}
			} else {
				r.regs[td.slot] = v
				nb |= uint64(1) << uint(td.slot)
			}
		}
		if !match {
			continue
		}
		r.witness[ai] = id
		if !r.rec(level+1, nb) {
			return false
		}
	}
	return true
}

// srExists flags that the side has at least one complete match.
func srExists(r *slotRun, _ uint64) bool {
	r.found = true
	return false
}

// srCollectMatch materializes a Match from the registers.
func srCollectMatch(r *slotRun, bound uint64) bool {
	*r.mout = append(*r.mout, Match{
		Binding: r.p.bindingFromRegs(r.regs, bound),
		Witness: append([]storage.TupleID(nil), r.witness...),
	})
	return true
}

// rhsHolds runs the nested RHS existence probe for a complete LHS
// match. The nested run shares the parent's register file: the
// frontier slots are bound, the existential slots bind freely, and
// what the probe wrote is usually dead the moment it returns because
// the parent's mask never includes it — the compiled replacement for
// Restrict-to-frontier plus a fresh binding map. The exception is a
// seed that binds an existential variable: the parent's mask covers
// that slot but (matching the interpreted Restrict-to-frontier
// semantics) the probe must not be constrained by it and may overwrite
// it, so those registers are saved around the probe and restored
// before the parent renders its binding or dedup key.
func rhsHolds(r *slotRun, bound uint64) bool {
	rr := r.rhsRun
	rr.found = false
	clob := bound & r.p.rhsVarsMask &^ r.p.frontierMask
	if clob != 0 && len(r.save) < len(r.regs) {
		// Only a seed that binds an existential needs the save area;
		// the chase's seeded queries never do.
		r.save = make([]model.Value, len(r.regs))
	}
	for m := clob; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		r.save[s] = r.regs[s]
	}
	rr.rec(0, bound&r.p.frontierMask)
	for m := clob; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		r.regs[s] = r.save[s]
	}
	return rr.found
}

// srViolation is the seeded violation query's match callback: a
// complete LHS match with no RHS support is a violation. The dedup
// key is rendered into the engine's reusable buffer and checked
// against the seen set without allocating; only a genuinely new
// violation materializes a Binding, witness copy, and key string.
func srViolation(r *slotRun, bound uint64) bool {
	if rhsHolds(r, bound) {
		return true
	}
	e := r.e
	if r.dedup {
		e.keyBuf = r.appendKey(e.keyBuf[:0], bound)
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
		Binding: r.p.bindingFromRegs(r.regs, bound),
		Witness: append([]storage.TupleID(nil), r.witness...),
	})
	return true
}

// srFirstViolation stops the enumeration at the first violation; the
// compiled core of Satisfied and of the empty-answer conflict check.
func srFirstViolation(r *slotRun, bound uint64) bool {
	if rhsHolds(r, bound) {
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
func srSameAnswer(r *slotRun, bound uint64) bool {
	if rhsHolds(r, bound) {
		return true
	}
	e := r.e
	e.keyBuf = r.appendKey(e.keyBuf[:0], bound)
	r.found = string(e.keyBuf) == r.answer
	return r.found
}

// appendKey renders the current violation's key from the registers:
// the bytes Violation.appendKey produces once it is materialised.
func (r *slotRun) appendKey(dst []byte, bound uint64) []byte {
	return appendKeyParts(dst, r.p, r.witness, func(dst []byte) []byte {
		return appendBindingSlots(dst, r.p, r.regs, bound)
	})
}

// appendBindingSlots renders the bound registers in canonical slot
// order — the same bytes Violation.appendKey produces from the
// materialized Binding map, computed here without building the map.
func appendBindingSlots(dst []byte, p *Plan, regs []model.Value, bound uint64) []byte {
	dst = append(dst, '{')
	first := true
	for s, name := range p.slots {
		if bound>>uint(s)&1 == 0 {
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
