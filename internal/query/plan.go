// Compiled query plans. Every violation query, seeded check, and
// correction probe of the chase evaluates the same dozen mappings
// millions of times, and every certain-answer query is a conjunction of
// the same kind of atoms; this file compiles both into a form the slot
// runtime (slots.go) executes with no string hashing and no per-call
// planning:
//
//   - a dense variable slot table — a variable assignment is a register
//     file ([]model.Value indexed by slot), and sets of slots are
//     plan-sized bitsets (slotSet), so a mapping of any width compiles;
//   - per-atom term descriptors — each argument position is either an
//     interned constant Value (baked in at compile time, so the join
//     never re-interns a mapping constant) or a slot number;
//   - a static join order per seed shape, chosen once from the live
//     indexes' cardinality stats (storage.Snapshot.RelStatsInto: tuple
//     counts and per-column distinct fanout) and cached in the plan.
//     Once an atom is placed all its variables are bound, so which
//     slots are bound is fixed at every step of an order: the order
//     carries each step's probe column and one bit per argument
//     position saying whether the step binds it or compares against
//     it, and the runtime tracks no bound set at all.
//
// Mapping plans are immutable, cached on the TGD itself (one atomic
// load to fetch), and shared by every engine and worker in the process.
// A conjunctive query is not cached: each certain or best-effort
// answer recompiles it, plan and join order, into one Plan and
// joinOrder its engine owns, in place and without allocating once their
// arrays have grown to the query. A best-effort answer orders the
// atoms without statistics and matches under unification (cq.go), on
// the same plan, order and registers.
// There is one runtime: the interpreted binding-map joins, the naive
// and the unifying one, survive only in the tests, as the reference the
// differential oracle checks the slot runtime against.
package query

import (
	"slices"
	"sync"
	"sync/atomic"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// slotSet is a set of slots, one bit per slot, sized to its plan.
type slotSet []uint64

func (s slotSet) has(i int32) bool { return s[i>>6]>>uint(i&63)&1 == 1 }

func (s slotSet) add(i int32) { s[i>>6] |= 1 << uint(i&63) }

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

// joinStep places one atom: the index column to probe (-1 = full-
// relation scan; the step has no determined position).
type joinStep struct {
	atom  int32
	probe int32
}

// joinOrder is the static evaluation order for one (side, seed shape).
// Plans keep every order they computed for their lifetime, so the
// layout is compact.
type joinOrder struct {
	rhs   bool
	shape slotSet // the seed shape: the slots bound before the first step
	steps []joinStep
	// binds holds one bit per argument position of the steps in order
	// (step k's positions start after those of steps 0..k-1): set when
	// the step binds the position's slot rather than comparing with
	// it. Constant positions are never set.
	binds slotSet
}

// Plan is a mapping or conjunctive query compiled for the slot runtime.
// A mapping plan's fields are immutable after compilation, and its
// order cache grows behind its own atomic pointer. A conjunctive
// query's plan is engine scratch, recompiled per query (compileCQ).
type Plan struct {
	t      *tgd.TGD // nil for a conjunctive query
	slots  []string
	slotOf map[string]int32
	lhs    []planAtom
	rhs    []planAtom

	nLHS     int     // LHS variables take slots [0, nLHS)
	frontier slotSet // slots of the frontier variables

	// A conjunctive query's plan: the head variables' slots.
	head []int32

	ordersMu sync.Mutex
	orders   atomic.Pointer[[]*joinOrder]
}

// Slots returns the plan's canonical variable order: LHS variables in
// first-occurrence order, then RHS-only variables. Violation.Vals
// holds the LHS variables' values in this order, and keys and traces
// render in it instead of sorting names per call.
func (p *Plan) Slots() []string { return p.slots }

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

// slot returns a variable's slot, assigning the next one on first use.
func (p *Plan) slot(name string) int32 {
	if s, ok := p.slotOf[name]; ok {
		return s
	}
	s := int32(len(p.slots))
	p.slots = append(p.slots, name)
	p.slotOf[name] = s
	return s
}

// appendAtoms compiles atoms onto dst, reusing the term arrays of dst's
// spare capacity.
func (p *Plan) appendAtoms(dst []planAtom, atoms []tgd.Atom) []planAtom {
	dst = slices.Grow(dst, len(atoms))
	for _, a := range atoms {
		ts := slices.Grow(dst[:len(dst)+1][len(dst)].terms[:0], len(a.Terms))
		for _, term := range a.Terms {
			if term.IsVar {
				ts = append(ts, termDesc{slot: p.slot(term.Var)})
			} else {
				ts = append(ts, termDesc{slot: -1, cval: term.Const})
			}
		}
		dst = append(dst, planAtom{rel: a.Rel, terms: ts})
	}
	return dst
}

func compilePlan(t *tgd.TGD) *Plan {
	p := &Plan{t: t, slotOf: make(map[string]int32)}
	p.lhs = p.appendAtoms(nil, t.LHS)
	p.nLHS = len(p.slots)
	p.rhs = p.appendAtoms(nil, t.RHS)
	p.frontier = make(slotSet, p.words())
	for _, v := range t.FrontierVars() {
		p.frontier.add(p.slotOf[v])
	}
	return p
}

// compileCQ recompiles p in place as a conjunctive query's plan: the
// body is the LHS, there is no RHS, and the head variables resolve to
// slots here rather than per answer row. p reuses the arrays of the
// last query it held, so a warm recompile allocates nothing.
func (p *Plan) compileCQ(q *CQ) {
	if p.slotOf == nil {
		p.slotOf = make(map[string]int32)
	}
	clear(p.slotOf)
	p.slots = p.slots[:0]
	p.lhs = p.appendAtoms(p.lhs[:0], q.Body)
	p.head = p.head[:0]
	for _, h := range q.Head {
		p.head = append(p.head, p.slot(h))
	}
}

// words is the length of the plan's slot sets.
func (p *Plan) words() int { return (len(p.slots) + 63) / 64 }

// orderFor returns the join order for (side, seed shape), computing it
// from the snapshot's cardinality stats on first use. The first
// computed order is published for the plan's lifetime and shared by
// every engine: any order enumerates the same homomorphism set, so
// which snapshot's statistics won the race affects speed only — and
// keeping it sticky means all workers enumerate identically.
func (p *Plan) orderFor(snap *storage.Snapshot, rhs bool, shape slotSet) *joinOrder {
	find := func(c *[]*joinOrder) *joinOrder {
		if c == nil {
			return nil
		}
		for _, o := range *c {
			if o.rhs == rhs && slices.Equal(o.shape, shape) {
				return o
			}
		}
		return nil
	}
	if ord := find(p.orders.Load()); ord != nil {
		return ord
	}
	ord := new(joinOrder)
	p.computeOrder(ord, new(orderScratch), snap, rhs, shape)
	p.ordersMu.Lock()
	defer p.ordersMu.Unlock()
	cur := p.orders.Load()
	if won := find(cur); won != nil { // lost the compute race
		return won
	}
	var next []*joinOrder
	if cur != nil {
		next = slices.Clip(*cur)
	}
	next = append(next, ord)
	p.orders.Store(&next)
	return ord
}

// orderScratch is the working memory of one order computation.
type orderScratch struct {
	stats []storage.RelStats
	done  []bool
	bound slotSet
}

// computeOrder runs the greedy choice statically, once per seed shape:
// most determined argument positions first, with the cardinality stats
// breaking ties by expected candidate count (Live / fanout of the best
// probe column) and atom index breaking exact ties. After an atom is
// placed all its variables are bound, so the bound set evolves
// deterministically and each step's bind bits follow from it. A nil
// snap gives every atom zero stats, so every cost ties and the order
// depends on the query alone. The order is written into o, working in
// sc; both keep their arrays, so a conjunctive query recomputes its
// order in place per call.
func (p *Plan) computeOrder(o *joinOrder, sc *orderScratch, snap *storage.Snapshot, rhs bool, shape slotSet) {
	atoms := p.lhs
	if rhs {
		atoms = p.rhs
	}
	n := len(atoms)
	positions := 0
	sc.stats = resize(sc.stats, n)
	for i := range atoms {
		if snap != nil {
			snap.RelStatsInto(atoms[i].rel, &sc.stats[i])
		} else {
			sc.stats[i] = storage.RelStats{Distinct: sc.stats[i].Distinct[:0]}
		}
		positions += len(atoms[i].terms)
	}
	// The shape and the bind bits share one array.
	words := resize(o.shape[:cap(o.shape)], len(shape)+(positions+63)/64)
	clear(words)
	copy(words, shape)
	o.rhs = rhs
	o.shape, o.binds = words[:len(shape)], words[len(shape):]
	o.steps = resize(o.steps, n)[:0]
	done := resize(sc.done, n)
	clear(done)
	bound := append(sc.bound[:0], shape...)
	sc.done, sc.bound = done, bound
	pos := int32(0)
	for len(o.steps) < n {
		best := -1
		bestBound := -1
		bestCost := 0.0
		bestProbe := int32(-1)
		for i := range atoms {
			if done[i] {
				continue
			}
			bc, probe, cost := atomCost(&atoms[i], sc.stats[i], bound)
			if bc > bestBound || (bc == bestBound && cost < bestCost) {
				best, bestBound, bestCost, bestProbe = i, bc, cost, probe
			}
		}
		done[best] = true
		for _, td := range atoms[best].terms {
			if td.slot >= 0 && !bound.has(td.slot) {
				o.binds.add(pos)
				bound.add(td.slot)
			}
			pos++
		}
		o.steps = append(o.steps, joinStep{atom: int32(best), probe: bestProbe})
	}
}

// atomCost scores an atom under a bound-slot set: the number of
// determined argument positions, the probe column (the determined
// column with the highest distinct-value fanout — the smallest
// expected index bucket), and the expected candidate count.
func atomCost(a *planAtom, st storage.RelStats, bound slotSet) (boundCount int, probe int32, cost float64) {
	probe = -1
	cost = float64(st.Live)
	bestFan := 0
	for ci := range a.terms {
		td := &a.terms[ci]
		if td.slot >= 0 && !bound.has(td.slot) {
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

// unifyRegs matches a tuple's values against a compiled atom, binding
// into regs the slots set does not hold yet and adding them to it. The
// §4.2 seeded violation queries start from an empty set; a recheck
// threads one set through a violation's whole witness. On failure set
// is left partly extended, and callers reset it before reuse.
func unifyRegs(vals []model.Value, a *planAtom, regs []model.Value, set slotSet) bool {
	if len(vals) != len(a.terms) {
		return false
	}
	for i := range a.terms {
		td := &a.terms[i]
		v := vals[i]
		switch {
		case td.slot < 0:
			if v != td.cval {
				return false
			}
		case set.has(td.slot):
			if regs[td.slot] != v {
				return false
			}
		default:
			regs[td.slot] = v
			set.add(td.slot)
		}
	}
	return true
}
