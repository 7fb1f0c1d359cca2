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
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// Binding assigns values to mapping variables.
type Binding map[string]model.Value

// Restrict returns the binding restricted to the given variables.
func (b Binding) Restrict(vars []string) Binding {
	out := make(Binding, len(vars))
	for _, v := range vars {
		if val, ok := b[v]; ok {
			out[v] = val
		}
	}
	return out
}

// String renders the binding deterministically, e.g. {c->Ithaca, n->x3}.
// With no mapping in hand it must sort the variable names; everything
// on a hot path (Violation.Key, Violation.String, the seeded-query
// dedup) renders through the compiled plan's canonical slot order
// instead and never sorts — keep this for plan-less diagnostics only.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "->" + b[k].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// appendValue renders a value exactly as model.Value.String does,
// into dst.
func appendValue(dst []byte, v model.Value) []byte {
	if v.IsNull() {
		dst = append(dst, 'x')
		return strconv.AppendInt(dst, v.NullID(), 10)
	}
	return append(dst, v.ConstValue()...)
}

// appendBindingOrdered renders a binding map in the plan's canonical
// slot order, byte-identical to appendBindingSlots over the register
// file.
func appendBindingOrdered(dst []byte, p *Plan, b Binding) []byte {
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
		dst = appendValue(dst, val)
	}
	return append(dst, '}')
}

// Match is one homomorphism of a mapping's LHS into the database: the
// variable assignment plus the witness tuples, aligned positionally
// with the mapping's LHS atoms (Witness[i] matched LHS[i]).
type Match struct {
	Binding Binding
	Witness []storage.TupleID
}

// Violation is a mapping violation (Definition 2.1): an LHS match with
// no corresponding RHS match. Witness is aligned with the mapping's
// LHS atoms.
type Violation struct {
	TGD     *tgd.TGD
	Binding Binding
	Witness []storage.TupleID
}

// Key identifies the violation within a run: mapping name, witness
// tuple IDs in atom order, and the full binding rendered in the
// compiled plan's canonical slot order (no per-call sorting). Keys are
// comparable only within one store instance (tuple IDs are
// store-scoped).
func (v *Violation) Key() string {
	return string(v.appendKey(nil))
}

// appendKey renders the key into dst; the seeded-query dedup calls it
// with the engine's reusable buffer so steady-state evaluations never
// allocate for keys.
func (v *Violation) appendKey(dst []byte) []byte {
	p := PlanFor(v.TGD)
	return appendKeyParts(dst, p, v.Witness, func(dst []byte) []byte {
		return appendBindingOrdered(dst, p, v.Binding)
	})
}

// AppendKey renders the key into a caller-owned buffer, allocation-
// free once the buffer has capacity; for callers (benches, the chase's
// own dedup) that re-render keys in a loop.
func (v *Violation) AppendKey(dst []byte) []byte { return v.appendKey(dst) }

// Same reports whether v and o are the same violation — same mapping,
// same witness tuples, same binding — which is exactly when their Keys
// are equal, decided on the parts themselves without rendering either
// key. The chase's queue dedup asks this on every enqueue.
func (v *Violation) Same(o *Violation) bool {
	return v.TGD == o.TGD && slices.Equal(v.Witness, o.Witness) && maps.Equal(v.Binding, o.Binding)
}

// appendKeyParts is the shared key layout: name | witness IDs | binding.
func appendKeyParts(dst []byte, p *Plan, witness []storage.TupleID, binding func([]byte) []byte) []byte {
	dst = append(dst, p.t.Name...)
	dst = append(dst, '|')
	for _, id := range witness {
		dst = strconv.AppendUint(dst, uint64(id), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, '|')
	return binding(dst)
}

// String renders the violation for diagnostics, binding in canonical
// slot order.
func (v *Violation) String() string {
	out := []byte("violation of " + v.TGD.Name + " at ")
	return string(appendBindingOrdered(out, PlanFor(v.TGD), v.Binding))
}

// WitnessSig renders a violation's identity canonically: the mapping
// name plus the witness tuples' current contents in atom order, with
// labeled nulls numbered by first occurrence across the whole
// sequence. Unlike Key it contains no tuple IDs, so two executions in
// equivalent states (equal up to null renaming and physical tuple
// identity) assign equal signatures to corresponding violations. The
// chase orders its violation processing by signature, which is what
// keeps the frontier — the order repairs are planned and decision
// contexts reach users — identical across serial and parallel
// executions: tuple IDs are minted in schedule order and would
// otherwise leak the interleaving into repair order and, through it,
// into the final instance.
func (e *Engine) WitnessSig(v *Violation) string {
	e.sigBuf = e.appendWitnessSig(e.sigBuf[:0], v)
	return string(e.sigBuf)
}

// AppendWitnessSig renders the signature into a caller-owned buffer,
// allocation-free once buffer and renaming scratch are warm.
func (e *Engine) AppendWitnessSig(dst []byte, v *Violation) []byte {
	return e.appendWitnessSig(dst, v)
}

// appendWitnessSig renders the signature into dst with the engine's
// pooled null-renaming scratch: building a signature allocates nothing
// beyond the final string the caller keeps.
func (e *Engine) appendWitnessSig(dst []byte, v *Violation) []byte {
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

	// Reusable buffers for violation keys, witness signatures and the
	// signatures' null-renaming scratch; seen is the seeded-query dedup
	// set, allocated on first violation and cleared per query.
	keyBuf []byte
	sigBuf []byte
	renBuf []model.Value
	seen   map[string]bool

	// vout is the violation-collection target. Collecting through an
	// engine field instead of a stack variable keeps the no-violation
	// steady state allocation-free: a local slice whose address reaches
	// the run would be heap-moved even when it stays nil. Ownership of
	// the backing array transfers to the caller at the end of each
	// evaluation (the field is reset to nil).
	vout []Violation

	// Locally accumulated join counters, flushed to the obs registry
	// once per top-level evaluation (flushObs).
	pendProbes int64
	pendSteps  int64
}

// NewEngine returns an engine reading through the given snapshot.
func NewEngine(snap *storage.Snapshot) *Engine {
	return &Engine{snap: snap}
}

// Snapshot returns the snapshot the engine reads through.
func (e *Engine) Snapshot() *storage.Snapshot { return e.snap }

// LHSMatches returns every homomorphism of the mapping's LHS into the
// snapshot that extends the seed binding, in deterministic order. Seed
// variables the mapping does not mention constrain nothing.
func (e *Engine) LHSMatches(t *tgd.TGD, seed Binding) []Match {
	defer e.flushObs()
	var out []Match
	p := PlanFor(t)
	r := e.getRun(p)
	p.seedSet(seed, r.regs, r.shape)
	r.side(false, r.shape)
	r.fn = srCollectMatch
	r.mout = &out
	r.rec(0, 0)
	e.putRun(r)
	return out
}

// RHSSatisfied reports whether the mapping's RHS has a complete match
// extending the binding's frontier variables (the existentially
// quantified variables bind freely).
func (e *Engine) RHSSatisfied(t *tgd.TGD, b Binding) bool {
	defer e.flushObs()
	p := PlanFor(t)
	r := e.getRun(p)
	for _, v := range t.FrontierVars() {
		if val, bound := b[v]; bound {
			sl := p.slotOf[v]
			r.regs[sl] = val
			r.shape.add(sl)
		}
	}
	r.side(true, r.shape)
	r.fn = srExists
	r.found = false
	r.rec(0, 0)
	found := r.found
	e.putRun(r)
	return found
}

// Violations returns every violation of the mapping extending the seed
// binding (Definition 2.1), in deterministic order. Seed variables the
// mapping does not mention constrain nothing.
func (e *Engine) Violations(t *tgd.TGD, seed Binding) []Violation {
	defer e.flushObs()
	p := PlanFor(t)
	lr, rr := e.getRun(p), e.getRun(p)
	p.seedSet(seed, lr.regs, lr.shape)
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
	rr.fn = srExists
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
// across seed atoms are rejected through the engine's reusable key
// buffer — a steady-state call that finds no violation allocates
// nothing.
func (e *Engine) ViolationsSeeded(t *tgd.TGD, rel string, vals []model.Value, side Side) []Violation {
	defer e.flushObs()
	clear(e.seen)
	p := PlanFor(t)
	lr, rr := e.getRun(p), e.getRun(p)
	lr.fn, lr.dedup, lr.vout = srViolation, true, &e.vout
	e.seededJoin(p, lr, rr, rel, vals, side)
	e.putRun(rr)
	e.putRun(lr)
	out := e.vout
	e.vout = nil
	return out
}

// answerDiffers reports whether a stored violation query's answer on
// the engine's snapshot differs from its recorded Answer, materialising
// no more than the comparison needs: an empty Answer is an existence
// probe that stops at the first violation, a single-violation Answer is
// compared violation by violation in the key buffer, and only a
// multi-violation Answer is evaluated and rendered in full.
func (e *Engine) answerDiffers(q *ViolationRead) bool {
	if q.multi {
		return e.canonViolations(q.eval(e)) != q.Answer
	}
	defer e.flushObs()
	p := PlanFor(q.TGD)
	lr, rr := e.getRun(p), e.getRun(p)
	lr.found = false
	lr.fn = srFirstViolation
	if q.Answer != "" {
		lr.fn, lr.answer = srSameAnswer, q.Answer
	}
	e.seededJoin(p, lr, rr, q.SeedRel, q.SeedVals, q.SeedSide)
	// An empty answer changed once a violation exists; a singleton
	// unless the recorded violation, and only it, was found.
	differs := lr.found == (q.Answer == "")
	e.putRun(rr)
	e.putRun(lr)
	return differs
}

// Recheck re-evaluates one recorded violation against the snapshot: its
// witness tuples must still be visible, still jointly match the
// mapping's LHS (their values may have changed through
// null-replacements), and the RHS must still have no match. It reports
// whether the violation still holds. The witness is re-unified into a
// pooled register file, so a recheck that finds the witness unchanged
// — every recheck but the one right after a unification — allocates
// nothing; only when a witness value actually moved is v.Binding
// replaced by a freshly materialised map.
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
	rr.fn = srExists
	rr.found = false
	rr.rec(0, 0)
	if rr.found {
		return false
	}
	if !p.bindingMatchesRegs(v.Binding, lr.regs, lr.shape) {
		v.Binding = p.bindingFromRegs(lr.regs, lr.shape)
	}
	return true
}

// AllViolations returns the violations of every mapping in the set, in
// mapping order then match order. Mainly used to validate that a
// database satisfies its mappings.
func (e *Engine) AllViolations(set *tgd.Set) []Violation {
	var out []Violation
	for _, t := range set.All() {
		out = append(out, e.Violations(t, nil)...)
	}
	return out
}

// Satisfied reports whether the snapshot satisfies every mapping.
func (e *Engine) Satisfied(set *tgd.Set) bool {
	defer e.flushObs()
	for _, t := range set.All() {
		p := PlanFor(t)
		lr, rr := e.getRun(p), e.getRun(p)
		lr.fn = srFirstViolation
		lr.found = false
		e.violationJoin(p, lr, rr, lr.shape)
		violated := lr.found
		e.putRun(rr)
		e.putRun(lr)
		if violated {
			return false
		}
	}
	return true
}

// InstantiateRHS builds the tuples the standard chase would insert to
// repair a violation: each RHS atom instantiated under the binding,
// with one fresh labeled null per existential variable drawn from
// fresh. It returns the tuples aligned with the RHS atoms and the
// set of freshly minted nulls.
func InstantiateRHS(t *tgd.TGD, b Binding, fresh func() model.Value) ([]model.Tuple, map[model.Value]bool) {
	ext := make(Binding, len(b)+len(t.ExistentialVars()))
	for k, v := range b {
		ext[k] = v
	}
	freshNulls := make(map[model.Value]bool)
	for _, z := range t.ExistentialVars() {
		nv := fresh()
		ext[z] = nv
		freshNulls[nv] = true
	}
	out := make([]model.Tuple, len(t.RHS))
	for i, a := range t.RHS {
		vals := make([]model.Value, len(a.Terms))
		for j, term := range a.Terms {
			if term.IsVar {
				vals[j] = ext[term.Var]
			} else {
				vals[j] = term.Const
			}
		}
		out[i] = model.Tuple{Rel: a.Rel, Vals: vals}
	}
	return out, freshNulls
}
