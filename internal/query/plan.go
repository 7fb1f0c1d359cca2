// Compiled mapping plans. Every violation query, seeded check, and
// correction probe of the chase interprets the same dozen mappings
// millions of times; this file compiles each tgd.TGD once into a form
// the slot runtime (slots.go) executes with no string hashing and no
// per-call planning:
//
//   - a dense variable slot table — bindings become a register file
//     ([]model.Value indexed by slot) plus one uint64 bound bitmask,
//     replacing map[string]model.Value on the hot path;
//   - per-atom term descriptors — each argument position is either an
//     interned constant Value (baked in at compile time, so the join
//     never re-interns a mapping constant) or a slot number;
//   - a static join order per seed shape, chosen once from committed-
//     epoch cardinality stats (storage.Snapshot.RelStats: live counts
//     and per-column distinct fanout) and cached in the plan, so the
//     runtime neither re-derives the greedy order per recursion level
//     nor probes every determined column's index to find the most
//     selective one — the probe column per step is precomputed.
//
// Plans are immutable, cached on the TGD itself (one atomic load to
// fetch), and shared by every engine and worker in the process. A
// mapping with more than 64 variables does not fit the bitmask and
// falls back to the interpreted engine, which remains intact both as
// that fallback and as the reference implementation the differential
// oracle checks the compiled runtime against.
package query

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// maxSlots is the slot runtime's variable budget: the bound-slot set
// is one uint64 bitmask.
const maxSlots = 64

// termDesc is one compiled argument position: an interned constant
// (slot < 0) or a variable slot.
type termDesc struct {
	slot int32
	cval model.Value
}

// planAtom is a compiled relational atom.
type planAtom struct {
	rel   string
	terms []termDesc
}

// varsMask returns the atom's variable slots as a bitmask.
func (a *planAtom) varsMask() uint64 {
	var m uint64
	for i := range a.terms {
		if s := a.terms[i].slot; s >= 0 {
			m |= uint64(1) << uint(s)
		}
	}
	return m
}

// joinOrder is the static evaluation order for one (side, seed shape):
// the atom visit sequence and, per step, the index column to probe
// (-1 = full-relation scan; the step has no determined position).
type joinOrder struct {
	seq   []int32
	probe []int32
}

// orderKey identifies a cached join order: which side of the mapping
// and which slots the seed binds.
type orderKey struct {
	rhs  bool
	mask uint64
}

// orderEntry is one cached (shape, order) pair; the plan keeps them in
// a copy-on-write slice behind an atomic pointer so the hit path is a
// short linear scan with no locking and — unlike a sync.Map keyed by a
// struct — no interface boxing, which would be one heap allocation per
// join.
type orderEntry struct {
	key orderKey
	ord *joinOrder
}

// Plan is a mapping compiled for the slot runtime. All fields are
// immutable after compilePlan; the order cache grows behind its own
// atomic pointer.
type Plan struct {
	t      *tgd.TGD
	ok     bool // slot runtime usable (≤ maxSlots variables)
	slots  []string
	slotOf map[string]int32
	lhs    []planAtom
	rhs    []planAtom

	lhsMask      uint64 // slots bound by a complete LHS match
	frontierMask uint64 // slots of the frontier variables
	rhsVarsMask  uint64 // slots any RHS atom can write

	ordersMu sync.Mutex
	orders   atomic.Pointer[[]orderEntry]
}

// Slots returns the plan's canonical variable order: LHS variables in
// first-occurrence order, then RHS-only variables. Bindings, keys and
// traces render in this order instead of sorting names per call.
func (p *Plan) Slots() []string { return p.slots }

// Compiled reports whether the mapping fits the slot runtime.
func (p *Plan) Compiled() bool { return p.ok }

// PlanFor returns the compiled plan for a mapping, compiling and
// publishing it on the TGD on first use.
func PlanFor(t *tgd.TGD) *Plan {
	if p, _ := t.CachedPlan().(*Plan); p != nil {
		obsPlanCacheHits.Inc()
		return p
	}
	p := compilePlan(t)
	obsPlansCompiled.Inc()
	if w, _ := t.PublishPlan(p).(*Plan); w != nil {
		return w
	}
	return p
}

// maskBelow returns a bitmask with the low n bits set.
func maskBelow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

func compilePlan(t *tgd.TGD) *Plan {
	p := &Plan{t: t, slotOf: make(map[string]int32)}
	slot := func(name string) int32 {
		if s, ok := p.slotOf[name]; ok {
			return s
		}
		s := int32(len(p.slots))
		p.slots = append(p.slots, name)
		p.slotOf[name] = s
		return s
	}
	compileSide := func(atoms []tgd.Atom) []planAtom {
		out := make([]planAtom, len(atoms))
		for i, a := range atoms {
			ts := make([]termDesc, len(a.Terms))
			for j, term := range a.Terms {
				if term.IsVar {
					ts[j] = termDesc{slot: slot(term.Var)}
				} else {
					ts[j] = termDesc{slot: -1, cval: term.Const}
				}
			}
			out[i] = planAtom{rel: a.Rel, terms: ts}
		}
		return out
	}
	p.lhs = compileSide(t.LHS)
	nLHS := len(p.slots)
	p.rhs = compileSide(t.RHS)
	p.ok = len(p.slots) <= maxSlots
	if p.ok {
		p.lhsMask = maskBelow(nLHS)
		for _, v := range t.FrontierVars() {
			p.frontierMask |= uint64(1) << uint(p.slotOf[v])
		}
		for i := range p.rhs {
			p.rhsVarsMask |= p.rhs[i].varsMask()
		}
	}
	return p
}

// orderFor returns the join order for (side, seed shape), computing it
// from the snapshot's cardinality stats on first use. The first
// computed order is published for the plan's lifetime and shared by
// every engine: any order enumerates the same homomorphism set, so
// which snapshot's statistics won the race affects speed only — and
// keeping it sticky means all workers enumerate identically.
func (p *Plan) orderFor(snap *storage.Snapshot, rhs bool, mask uint64) *joinOrder {
	key := orderKey{rhs: rhs, mask: mask}
	if cached := p.orders.Load(); cached != nil {
		for i := range *cached {
			if (*cached)[i].key == key {
				return (*cached)[i].ord
			}
		}
	}
	ord := p.computeOrder(snap, rhs, mask)
	p.ordersMu.Lock()
	defer p.ordersMu.Unlock()
	var cur []orderEntry
	if c := p.orders.Load(); c != nil {
		cur = *c
		for i := range cur {
			if cur[i].key == key { // lost the compute race
				return cur[i].ord
			}
		}
	}
	next := make([]orderEntry, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = orderEntry{key: key, ord: ord}
	p.orders.Store(&next)
	return ord
}

// computeOrder runs the greedy simulation the interpreted engine does
// per recursion level, once, statically: after an atom is placed, all
// its variables are bound, so the bound-slot evolution is fully
// determined by the seed shape. The greedy key is the interpreted
// engine's — most determined argument positions first — with the
// cardinality stats breaking ties by expected candidate count
// (Live / fanout of the best probe column) and atom index breaking
// exact ties, so plans on empty or statless databases degrade to the
// interpreted engine's order exactly.
func (p *Plan) computeOrder(snap *storage.Snapshot, rhs bool, mask uint64) *joinOrder {
	atoms := p.lhs
	if rhs {
		atoms = p.rhs
	}
	n := len(atoms)
	o := &joinOrder{seq: make([]int32, 0, n), probe: make([]int32, 0, n)}
	done := make([]bool, n)
	stats := make([]storage.RelStats, n)
	for i := range atoms {
		stats[i] = snap.RelStats(atoms[i].rel)
	}
	bound := mask
	for len(o.seq) < n {
		best := -1
		bestBound := -1
		bestCost := 0.0
		bestProbe := int32(-1)
		for i := range atoms {
			if done[i] {
				continue
			}
			bc, probe, cost := atomCost(&atoms[i], stats[i], bound)
			if bc > bestBound || (bc == bestBound && cost < bestCost) {
				best, bestBound, bestCost, bestProbe = i, bc, cost, probe
			}
		}
		done[best] = true
		o.seq = append(o.seq, int32(best))
		o.probe = append(o.probe, bestProbe)
		bound |= atoms[best].varsMask()
	}
	return o
}

// atomCost scores an atom under a bound-slot set: the number of
// determined argument positions, the probe column (the determined
// column with the highest distinct-value fanout — the smallest
// expected index bucket), and the expected candidate count.
func atomCost(a *planAtom, st storage.RelStats, bound uint64) (boundCount int, probe int32, cost float64) {
	probe = -1
	cost = float64(st.Live)
	bestFan := 0
	for ci := range a.terms {
		td := &a.terms[ci]
		if td.slot >= 0 && bound>>uint(td.slot)&1 == 0 {
			continue
		}
		boundCount++
		fan := 1
		if ci < len(st.Distinct) && st.Distinct[ci] > 1 {
			fan = st.Distinct[ci]
		}
		if fan > bestFan || probe < 0 {
			bestFan = fan
			probe = int32(ci)
			cost = float64(st.Live) / float64(fan)
		}
	}
	return boundCount, probe, cost
}

// seedMask converts an external seed binding into registers. ok is
// false when the binding names a variable outside the plan's slot
// table (a caller-carried foreign variable the register file cannot
// represent) — the engine then falls back to the interpreted path.
func (p *Plan) seedMask(seed Binding, regs []model.Value) (uint64, bool) {
	var mask uint64
	for name, val := range seed {
		s, ok := p.slotOf[name]
		if !ok {
			return 0, false
		}
		regs[s] = val
		mask |= uint64(1) << uint(s)
	}
	return mask, true
}

// unifyRegs matches a tuple's values against a compiled atom, binding
// slots into regs on top of the slots mask already holds — the
// compiled form of unifyValsAtom. The §4.2 seeded violation queries
// start from an empty mask; a recheck threads one mask through a
// violation's whole witness.
func unifyRegs(vals []model.Value, a *planAtom, regs []model.Value, mask uint64) (uint64, bool) {
	if len(vals) != len(a.terms) {
		return 0, false
	}
	for i := range a.terms {
		td := &a.terms[i]
		v := vals[i]
		if td.slot < 0 {
			if v != td.cval {
				return 0, false
			}
			continue
		}
		if mask>>uint(td.slot)&1 == 1 {
			if regs[td.slot] != v {
				return 0, false
			}
			continue
		}
		regs[td.slot] = v
		mask |= uint64(1) << uint(td.slot)
	}
	return mask, true
}

// bindingFromRegs materializes a Binding map from the register file —
// only at result boundaries (an actual match or violation), never
// inside the join loop.
func (p *Plan) bindingFromRegs(regs []model.Value, bound uint64) Binding {
	b := make(Binding, bits.OnesCount64(bound))
	for s, name := range p.slots {
		if bound>>uint(s)&1 == 1 {
			b[name] = regs[s]
		}
	}
	return b
}

// bindingMatchesRegs reports whether b binds exactly the slots in bound
// to the values the register file holds — whether materialising the
// registers would reproduce b.
func (p *Plan) bindingMatchesRegs(b Binding, regs []model.Value, bound uint64) bool {
	if len(b) != bits.OnesCount64(bound) {
		return false
	}
	for s, name := range p.slots {
		if bound>>uint(s)&1 == 1 {
			if val, ok := b[name]; !ok || val != regs[s] {
				return false
			}
		}
	}
	return true
}
