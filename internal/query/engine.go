// Package query evaluates the conjunctive queries that Youtopia's
// update exchange needs: LHS/RHS matching of mappings by homomorphism,
// violation detection (Definition 2.1), the seeded violation queries of
// §4.2 ("SELECT * FROM (LHS query) WHERE NOT EXISTS (SELECT * FROM
// (RHS query))" with bindings taken from a newly written tuple), and
// the correction queries used by the forward chase.
//
// Matching follows the homomorphism semantics of Fagin et al. [11]:
// labeled nulls in the database are ordinary domain values — a query
// constant matches only itself, while a query variable binds to any
// value, constant or null.
package query

import (
	"slices"
	"strconv"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// appendVals renders the values of a violation's LHS variables in the
// plan's slot order, e.g. {c->Ithaca, n->x3}.
func appendVals(dst []byte, p *Plan, vals []model.Value) []byte {
	dst = append(dst, '{')
	for s, val := range vals {
		if s > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, p.slots[s]...)
		dst = append(dst, "->"...)
		dst = val.AppendString(dst)
	}
	return append(dst, '}')
}

// Violation is a mapping violation (Definition 2.1): an LHS match with
// no corresponding RHS match. Vals holds the values of the mapping's
// LHS variables in PlanFor(TGD).Slots() order (LHS variables take the
// first slots); Witness is aligned with the mapping's LHS atoms.
type Violation struct {
	TGD     *tgd.TGD
	Vals    []model.Value
	Witness []storage.TupleID
}

// Key identifies the violation within a run: mapping name, witness
// tuple IDs in atom order, and the values rendered in slot order. Keys
// are comparable only within one store instance (tuple IDs are
// store-scoped).
func (v *Violation) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey renders the key into a caller-owned buffer, allocation-
// free once the buffer has capacity; for callers (benches, the chase's
// own dedup) that re-render keys in a loop.
func (v *Violation) AppendKey(dst []byte) []byte {
	return appendKey(dst, PlanFor(v.TGD), v.Witness, v.Vals)
}

// Same reports whether v and o are the same violation — same mapping,
// same witness tuples, same values — which is exactly when their Keys
// are equal, decided on the parts themselves without rendering either
// key. The chase's queue dedup asks this on every enqueue.
func (v *Violation) Same(o *Violation) bool {
	return v.TGD == o.TGD && slices.Equal(v.Witness, o.Witness) && slices.Equal(v.Vals, o.Vals)
}

// appendKey is the key layout: name | witness IDs | values.
func appendKey(dst []byte, p *Plan, witness []storage.TupleID, vals []model.Value) []byte {
	dst = append(dst, p.t.Name...)
	dst = append(dst, '|')
	for _, id := range witness {
		dst = strconv.AppendUint(dst, uint64(id), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, '|')
	return appendVals(dst, p, vals)
}

// String renders the violation for diagnostics, values in slot order.
func (v *Violation) String() string {
	out := []byte("violation of " + v.TGD.Name + " at ")
	return string(appendVals(out, PlanFor(v.TGD), v.Vals))
}

// AppendWitnessSig appends a violation's canonical signature to dst:
// the mapping name plus the witness tuples' current contents in atom
// order, with labeled nulls numbered by first occurrence across the
// whole sequence. Unlike Key it contains no tuple IDs, so two
// executions in equivalent states (equal up to null renaming and
// physical tuple identity) assign equal signatures to corresponding
// violations. The
// chase orders its violation processing by signature, which is what
// keeps the frontier — the order repairs are planned and decision
// contexts reach users — identical across serial and parallel
// executions: tuple IDs are minted in schedule order and would
// otherwise leak the interleaving into repair order and, through it,
// into the final instance. It renders with the engine's pooled
// null-renaming scratch, allocation-free once dst has capacity: the
// chase renders its queued violations' signatures into one arena.
func (e *Engine) AppendWitnessSig(dst []byte, v *Violation) []byte {
	dst = append(dst, v.TGD.Name...)
	ren := e.renBuf[:0]
	for _, id := range v.Witness {
		dst = append(dst, '|')
		t, ok := e.snap.GetTuple(id)
		if !ok {
			dst = append(dst, '?')
			continue
		}
		dst = append(dst, t.Rel...)
		for _, val := range t.Vals {
			dst = append(dst, 0x1f)
			if val.IsNull() {
				n := 0
				for i := range ren {
					if ren[i] == val {
						n = i + 1
						break
					}
				}
				if n == 0 {
					ren = append(ren, val)
					n = len(ren)
				}
				dst = append(dst, '?')
				dst = strconv.AppendInt(dst, int64(n), 10)
			} else {
				dst = append(dst, 'c')
				dst = append(dst, val.ConstValue()...)
			}
		}
	}
	e.renBuf = ren
	return dst
}

// Engine evaluates queries against one snapshot. It is not safe for
// concurrent use: the join scratch (pooled slot runs reused across
// evaluations — the match loop is the hottest code path in the system)
// is owned by one goroutine at a time, which is how every caller
// already uses an engine.
type Engine struct {
	snap *storage.Snapshot

	// runPool holds idle slot runs; a violation query pops two (the LHS
	// enumeration and its nested RHS probe).
	runPool []*slotRun

	// renBuf is the witness signatures' null-renaming scratch; sorted
	// orders a stored read's multi-violation answer
	// (ViolationRead.setAnswer); seen is the seeded-query dedup index
	// (srViolation), allocated on first violation and cleared per
	// query.
	renBuf []model.Value
	sorted []Violation
	seen   map[uint64]int32

	// vout is the violation-collection target. Collecting through an
	// engine field instead of a stack variable keeps the no-violation
	// steady state allocation-free: a local slice whose address reaches
	// the run would be heap-moved even when it stays nil. Ownership of
	// the backing array transfers to the caller at the end of each
	// evaluation (the field is reset to nil).
	vout []Violation

	// rows is the join's row stack: each level of an enumeration pushes
	// the rows its probe kept and walks its own range [base, top) while
	// the levels below push and pop above it (popRows). Nested runs, like
	// a violation's RHS probe, stack on the same array.
	rows []storage.Row

	// cq is CertainAnswers' plan and row scratch, allocated by the
	// first certain-answer query: engines that answer none, like the
	// chase's query contexts, do not carry it.
	cq *cqScratch

	// Locally accumulated join counters, flushed to the obs registry
	// once per top-level evaluation (flushObs): index probes, candidates
	// examined, and matching rows the enumeration walked (a step's probe
	// may keep more, when the enumeration stops early).
	pendProbes  int64
	pendSteps   int64
	pendMatched int64
}

// NewEngine returns an engine reading through the given snapshot.
func NewEngine(snap *storage.Snapshot) *Engine {
	return &Engine{snap: snap}
}

// Snapshot returns the snapshot the engine reads through.
func (e *Engine) Snapshot() *storage.Snapshot { return e.snap }

// SetSnapshot re-points the engine at another snapshot, keeping its
// pools warm: a caller that lends one engine to many readers re-points
// it per use.
func (e *Engine) SetSnapshot(snap *storage.Snapshot) { e.snap = snap }

// Violations returns every violation of the mapping (Definition 2.1),
// in deterministic order.
func (e *Engine) Violations(t *tgd.TGD) []Violation {
	defer e.flushObs()
	p := PlanFor(t)
	lr, rr := e.getRun(p), e.getRun(p)
	lr.fn, lr.vout = srViolation, &e.vout
	e.violationJoin(p, lr, rr, lr.shape)
	e.putRun(rr)
	e.putRun(lr)
	out := e.vout
	e.vout = nil
	return out
}

// violationJoin wires the LHS enumeration run lr — whose callback the
// caller has set: collect into e.vout (see the field comment for why
// collection goes through the engine rather than a caller local), stop
// at the first violation, or compare against a recorded answer — to the
// nested RHS probe run rr (sharing lr's register file), and enumerates
// the LHS matches extending the seed shape. It reports false when the
// callback stopped the enumeration.
func (e *Engine) violationJoin(p *Plan, lr, rr *slotRun, shape slotSet) bool {
	lr.side(false, shape)
	rr.regs = lr.regs
	rr.side(true, p.frontier)
	rr.fn, rr.first = srExists, true
	lr.rhsRun = rr
	return lr.rec(0, 0)
}

// seededJoin runs violationJoin over the seed shapes of the §4.2
// seeded query — the written values unified into each LHS atom over
// rel, and/or into each RHS atom over rel keeping only the frontier —
// until lr's callback stops the enumeration.
func (e *Engine) seededJoin(p *Plan, lr, rr *slotRun, rel string, vals []model.Value, side Side) {
	if side == SeedLHS || side == SeedBoth {
		for i := range p.lhs {
			if p.lhs[i].rel != rel {
				continue
			}
			clear(lr.shape)
			if unifyRegs(vals, &p.lhs[i], lr.regs, lr.shape) && !e.violationJoin(p, lr, rr, lr.shape) {
				return
			}
		}
	}
	if side == SeedRHS || side == SeedBoth {
		for i := range p.rhs {
			if p.rhs[i].rel != rel {
				continue
			}
			clear(lr.shape)
			if !unifyRegs(vals, &p.rhs[i], lr.regs, lr.shape) {
				continue
			}
			for w := range lr.shape {
				lr.shape[w] &= p.frontier[w]
			}
			if !e.violationJoin(p, lr, rr, lr.shape) {
				return
			}
		}
	}
}

// Side selects which atoms of a mapping a seeded violation query
// binds the written tuple against.
type Side uint8

const (
	// SeedLHS seeds through LHS atoms: violations whose witness carries
	// the written values. Inserts and the insert half of modifications
	// create violations only this way.
	SeedLHS Side = iota
	// SeedRHS seeds through RHS atoms: violations whose RHS support
	// involved the written values — the "deleted RHS support" case of
	// Example 4.1.
	SeedRHS
	// SeedBoth unions both directions.
	SeedBoth
)

// String names the side.
func (s Side) String() string {
	switch s {
	case SeedLHS:
		return "lhs"
	case SeedRHS:
		return "rhs"
	default:
		return "both"
	}
}

// ViolationsSeeded evaluates the §4.2 violation query for mapping t
// seeded by a written tuple (rel, vals) on the chosen side: violations
// whose LHS atoms over rel carry the written values (SeedLHS), and/or
// violations whose frontier bindings flow from the written tuple
// through an RHS atom over rel (SeedRHS). The result is deduplicated
// and deterministic. The written tuple's values unify straight into the
// register file, each seed shape runs its static order, and duplicates
// across seed atoms are rejected through the engine's reusable dedup
// index — a steady-state call that finds no violation allocates
// nothing.
func (e *Engine) ViolationsSeeded(t *tgd.TGD, rel string, vals []model.Value, side Side) []Violation {
	return e.AppendViolationsSeeded(nil, t, rel, vals, side)
}

// AppendViolationsSeeded is ViolationsSeeded appending to dst, so that
// a caller that consumes the violations at once reuses one array: each
// violation found then allocates only its own Vals and Witness.
func (e *Engine) AppendViolationsSeeded(dst []Violation, t *tgd.TGD, rel string, vals []model.Value, side Side) []Violation {
	defer e.flushObs()
	clear(e.seen)
	p := PlanFor(t)
	lr, rr := e.getRun(p), e.getRun(p)
	lr.fn, lr.dedup, lr.vout = srViolation, true, &e.vout
	e.vout = dst
	e.seededJoin(p, lr, rr, rel, vals, side)
	e.putRun(rr)
	e.putRun(lr)
	out := e.vout
	e.vout = nil
	return out
}

// answerDiffers reports whether a stored violation query's answer on
// the engine's snapshot differs from its recorded answer, materialising
// no more than the comparison needs: an empty answer is an existence
// probe that stops at the first violation, a single-violation answer is
// compared field by field in the registers, and only a multi-violation
// answer is evaluated in full, each violation found looked up in the
// recorded one.
func (e *Engine) answerDiffers(q *ViolationRead) bool {
	n := q.answerLen()
	if n > 1 {
		found := q.eval(e)
		if len(found) != n {
			return true
		}
		for i := range found {
			if !q.answerHas(&found[i]) {
				return true
			}
		}
		return false
	}
	defer e.flushObs()
	p := PlanFor(q.TGD)
	lr, rr := e.getRun(p), e.getRun(p)
	lr.found = false
	lr.fn = srFirstViolation
	if n == 1 {
		lr.fn, lr.answer = srSameAnswer, q
	}
	e.seededJoin(p, lr, rr, q.SeedRel(), q.SeedVals, q.SeedSide)
	// An empty answer changed once a violation exists; a singleton
	// unless the recorded violation, and only it, was found.
	differs := lr.found == (n == 0)
	e.putRun(rr)
	e.putRun(lr)
	return differs
}

// CouldSupport reports whether a tuple written into rel with vals
// agrees with one of the mapping's RHS atoms on the atom's constants
// and on the violation's values at its LHS-variable positions. Only
// such a tuple can complete an RHS match for the violation: the write
// that completes one supplies one of its atoms, and an existential
// position agrees with anything.
func (v *Violation) CouldSupport(rel string, vals []model.Value) bool {
	p := PlanFor(v.TGD)
	for i := range p.rhs {
		a := &p.rhs[i]
		if a.rel == rel && len(a.terms) == len(vals) && agreesOn(a.terms, vals, v.Vals) {
			return true
		}
	}
	return false
}

// agreesOn reports whether vals agree with an atom's constants and,
// at LHS-variable positions, with the given LHS values; positions of
// other slots agree with anything.
func agreesOn(terms []termDesc, vals, lhs []model.Value) bool {
	for i := range terms {
		td := &terms[i]
		switch {
		case td.slot < 0:
			if vals[i] != td.cval {
				return false
			}
		case int(td.slot) < len(lhs):
			if vals[i] != lhs[td.slot] {
				return false
			}
		}
	}
	return true
}

// Recheck re-evaluates one recorded violation against the snapshot: its
// witness tuples must still be visible, still jointly match the
// mapping's LHS (their values may have changed through
// null-replacements), and the RHS must still have no match. It reports
// whether the violation still holds. The witness is re-unified into a
// pooled register file, so a recheck that finds the witness unchanged
// — every recheck but the one right after a unification — allocates
// nothing. When a witness value moved, v.Vals is replaced by a fresh
// slice, never written in place: other holders of the violation (a
// frontier group) share the old one.
func (e *Engine) Recheck(v *Violation) bool {
	defer e.flushObs()
	p := PlanFor(v.TGD)
	lr, rr := e.getRun(p), e.getRun(p)
	defer e.putRun(rr)
	defer e.putRun(lr)
	for i, id := range v.Witness {
		vals, ok := e.snap.Get(id)
		if !ok || !unifyRegs(vals, &p.lhs[i], lr.regs, lr.shape) {
			return false
		}
	}
	rr.regs = lr.regs
	rr.side(true, p.frontier)
	rr.fn, rr.first = srExists, true
	rr.found = false
	rr.rec(0, 0)
	if rr.found {
		return false
	}
	if vals := lr.regs[:p.nLHS]; !slices.Equal(v.Vals, vals) {
		v.Vals = slices.Clone(vals)
	}
	return true
}

// AllViolations returns the violations of every mapping in the set, in
// mapping order then match order. Mainly used to validate that a
// database satisfies its mappings.
func (e *Engine) AllViolations(set *tgd.Set) []Violation {
	var out []Violation
	for _, t := range set.All() {
		out = append(out, e.Violations(t)...)
	}
	return out
}

// InstantiateRHS builds the tuples the standard chase would insert to
// repair a violation: each RHS atom instantiated under the violation's
// values (Violation.Vals), with nulls[i] for the i-th existential
// variable in t.ExistentialVars() order. It returns tuples with the
// instantiated tuples appended, aligned with the RHS atoms. The
// tuples' values are freshly allocated.
func InstantiateRHS(t *tgd.TGD, vals, nulls []model.Value, tuples []model.Tuple) []model.Tuple {
	p := PlanFor(t)
	n := 0
	for i := range p.rhs {
		n += len(p.rhs[i].terms)
	}
	all := make([]model.Value, 0, n)
	for i := range p.rhs {
		a := &p.rhs[i]
		lo := len(all)
		for _, td := range a.terms {
			switch {
			case td.slot < 0:
				all = append(all, td.cval)
			case int(td.slot) < p.nLHS:
				all = append(all, vals[td.slot])
			default:
				// The existentials take the slots after the LHS
				// variables, in ExistentialVars order.
				all = append(all, nulls[int(td.slot)-p.nLHS])
			}
		}
		tuples = append(tuples, model.Tuple{Rel: a.rel, Vals: all[lo:len(all):len(all)]})
	}
	return tuples
}
