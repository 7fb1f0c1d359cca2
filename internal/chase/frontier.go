package chase

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// DecisionKind classifies frontier operations (§2.2, §2.3).
type DecisionKind uint8

const (
	// DecideExpand inserts one positive frontier tuple into the
	// database.
	DecideExpand DecisionKind = iota
	// DecideUnify collapses one positive frontier tuple onto a more
	// specific tuple already in its relation, unifying labeled nulls.
	DecideUnify
	// DecideDelete deletes a nonempty subset of a negative frontier
	// group's candidates.
	DecideDelete
	// DecideReconfirm asserts that a proper subset of a negative
	// group's candidates must NOT be deleted — the counterpart of
	// unification that §2.3 proposes as future work, implemented here.
	DecideReconfirm
)

// String names the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecideExpand:
		return "expand"
	case DecideUnify:
		return "unify"
	case DecideDelete:
		return "delete"
	case DecideReconfirm:
		return "reconfirm"
	default:
		return fmt.Sprintf("decision(%d)", uint8(k))
	}
}

// Decision is one frontier operation on one group.
type Decision struct {
	Kind DecisionKind
	// TupleIdx indexes the group's Tuples (expand, unify).
	TupleIdx int
	// Target is the more specific tuple to unify with (unify).
	Target storage.TupleID
	// Subset lists candidate tuples (delete: to remove; reconfirm: to
	// protect).
	Subset []storage.TupleID
}

// String renders the decision.
func (d Decision) String() string {
	switch d.Kind {
	case DecideExpand:
		return fmt.Sprintf("expand tuple %d", d.TupleIdx)
	case DecideUnify:
		return fmt.Sprintf("unify tuple %d with #%d", d.TupleIdx, d.Target)
	case DecideDelete:
		return fmt.Sprintf("delete subset %v", d.Subset)
	case DecideReconfirm:
		return fmt.Sprintf("reconfirm subset %v", d.Subset)
	default:
		return "unknown decision"
	}
}

// Errors returned by Apply.
var (
	// ErrStaleDecision means the decision no longer applies (the unify
	// target vanished or is no longer more specific, or indexes moved).
	ErrStaleDecision = errors.New("chase: decision is stale")
	// ErrBadDecision means the decision was never valid for the group.
	ErrBadDecision = errors.New("chase: invalid decision")
)

// Options enumerates the frontier operations currently available for a
// group, in deterministic, canonically ordered form. For a positive
// group this performs (and logs) the more-specific correction queries
// that determine the unification targets; for a negative group the
// alternatives are the nonempty subsets of the remaining candidates
// (enumerated exhaustively up to 6 candidates, singletons beyond
// that). Reconfirmation is deliberately not enumerated — it is an
// explicit-intent extension operation — but Apply accepts it.
func (e *Engine) Options(u *Update, g *FrontierGroup) []Decision {
	if g.Positive {
		return e.positiveOptions(u, g, nil)
	}
	return negativeOptions(g)
}

// scratchOptions is Options enumerating a positive group's decisions
// into the engine's scratch: the result is valid until the engine's
// next enumeration, so callers use it within one call.
func (e *Engine) scratchOptions(u *Update, g *FrontierGroup) []Decision {
	if !g.Positive {
		return negativeOptions(g)
	}
	e.opts = e.positiveOptions(u, g, e.opts[:0])
	return e.opts
}

// positiveOptions appends a positive group's decisions to out.
func (e *Engine) positiveOptions(u *Update, g *FrontierGroup, out []Decision) []Decision {
	c := e.queryContext(u)
	snap := &c.snap
	logPatterns := e.logsReads() && !g.patternsLogged
	g.patternsLogged = true
	for idx, t := range g.Tuples {
		if logPatterns {
			e.record(u, e.reads.moreSpecific(t, u.Number))
		}
		e.targets = snap.MoreSpecificInto(t, e.targets[:0])
		targets := e.targets
		out = slices.Grow(out, 1+len(targets))
		out = append(out, Decision{Kind: DecideExpand, TupleIdx: idx})
		if len(targets) < 2 {
			// One target or none: nothing to order canonically.
			for _, id := range targets {
				out = append(out, Decision{Kind: DecideUnify, TupleIdx: idx, Target: id})
			}
			continue
		}
		for _, sp := range e.sortTargets(snap, targets) {
			out = append(out, Decision{Kind: DecideUnify, TupleIdx: idx, Target: sp.id})
		}
	}
	return out
}

// negativeOptions enumerates a negative group's decisions.
func negativeOptions(g *FrontierGroup) []Decision {
	k := len(g.Candidates)
	if k <= 6 {
		// Mask m's subset has popcount(m) members; the 2^k-1 subsets
		// hold k*2^(k-1) in all, carved from one array.
		out := make([]Decision, 0, 1<<k-1)
		ids := make([]storage.TupleID, 0, k<<(k-1))
		for mask := 1; mask < 1<<k; mask++ {
			lo := len(ids)
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					ids = append(ids, g.Candidates[i])
				}
			}
			out = append(out, Decision{Kind: DecideDelete, Subset: ids[lo:len(ids):len(ids)]})
		}
		return out
	}
	out := make([]Decision, 0, k)
	ids := slices.Clone(g.Candidates)
	for i := range ids {
		out = append(out, Decision{Kind: DecideDelete, Subset: ids[i : i+1 : i+1]})
	}
	return out
}

// targetSpan locates one unify target's canonical rendering in
// Engine.canon.
type targetSpan struct {
	id     storage.TupleID
	lo, hi int
}

// sortTargets orders unify targets by their canonical renderings
// (model.AppendCanonTuple's bytes), ties by tuple ID, rendering into the
// engine's reused arena. Targets no longer visible are dropped. The
// returned spans are valid until the engine's next rendering.
func (e *Engine) sortTargets(snap *storage.Snapshot, targets []storage.TupleID) []targetSpan {
	buf, spans := e.canon[:0], e.spans[:0]
	for _, id := range targets {
		tv, ok := snap.GetTuple(id)
		if !ok {
			continue
		}
		lo := len(buf)
		buf = model.AppendCanonTuple(buf, tv)
		spans = append(spans, targetSpan{id, lo, len(buf)})
	}
	slices.SortFunc(spans, func(a, b targetSpan) int {
		if r := bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]); r != 0 {
			return r
		}
		return cmp.Compare(a.id, b.id)
	})
	e.canon, e.spans = buf, spans
	return spans
}

// DecisionContext renders a canonical description of the choice a
// group presents: the mapping name plus the canonical (null-renaming
// invariant) contents of the witness and the remaining frontier
// tuples. Deterministic simulated users key their choices on this, so
// replays after aborts — and serial reference executions — decide
// identically. The rendering reuses the engine's buffers; only the
// returned string is allocated.
func (e *Engine) DecisionContext(u *Update, g *FrontierGroup) string {
	snap := &e.queryContext(u).snap
	ts := e.tuples[:0]
	for _, id := range g.Viol.Witness {
		if tv, ok := snap.GetTuple(id); ok {
			ts = append(ts, tv)
		}
	}
	if g.Positive {
		ts = append(ts, g.Tuples...)
	} else {
		for _, id := range g.Candidates {
			if tv, ok := snap.GetTuple(id); ok {
				ts = append(ts, tv)
			}
		}
	}
	buf := append(e.canon[:0], g.Viol.TGD.Name...)
	if g.Positive {
		buf = append(buf, "|positive|"...)
	} else {
		buf = append(buf, "|negative|"...)
	}
	buf = model.AppendCanonTuples(buf, ts, &e.scratch)
	clear(ts)
	e.tuples, e.canon = ts[:0], buf
	return string(buf)
}

// Apply performs a frontier operation on one of the update's open
// groups (§2.2 "expand"/"unify", §2.3 deletion choice and the
// reconfirmation extension). The operation's corrective writes become
// the update's next write set, exactly as in Algorithm 1, and the
// update becomes ready to step again.
func (e *Engine) Apply(u *Update, groupID int, d Decision) error {
	if u.state == StateTerminated || u.state == StateAborted {
		return fmt.Errorf("chase: frontier operation on %s update %d", u.state, u.Number)
	}
	g, ok := u.Group(groupID)
	if !ok {
		return fmt.Errorf("%w: no open group %d on update %d", ErrStaleDecision, groupID, u.Number)
	}
	var err error
	switch d.Kind {
	case DecideExpand:
		err = e.applyExpand(u, g, d)
	case DecideUnify:
		err = e.applyUnify(u, g, d)
	case DecideDelete:
		err = e.applyDelete(u, g, d)
	case DecideReconfirm:
		err = e.applyReconfirm(u, g, d)
	default:
		err = fmt.Errorf("%w: unknown kind %v", ErrBadDecision, d.Kind)
	}
	if err != nil {
		return err
	}
	u.Stats.FrontierOps++
	obsFrontierOps.Inc()
	u.state = StateReady
	return nil
}

// queuedFor finds the queue entry a group belongs to.
func (u *Update) queuedFor(g *FrontierGroup) *queuedViolation {
	for _, qv := range u.queue {
		if qv.group == g {
			return qv
		}
	}
	return nil
}

// closeGroup detaches an emptied (or resolved) group from its
// violation and schedules the violation for recheck.
func (u *Update) closeGroup(g *FrontierGroup) {
	if qv := u.queuedFor(g); qv != nil {
		qv.state = ViolRepairing
		qv.group = nil
	}
	u.removeGroup(g)
}

func (e *Engine) applyExpand(u *Update, g *FrontierGroup, d Decision) error {
	if !g.Positive {
		return fmt.Errorf("%w: expand on a negative group", ErrBadDecision)
	}
	if d.TupleIdx < 0 || d.TupleIdx >= len(g.Tuples) {
		return fmt.Errorf("%w: tuple index %d out of range", ErrStaleDecision, d.TupleIdx)
	}
	t := g.Tuples[d.TupleIdx]
	u.writeSet = append(u.writeSet, Insert(t).because(causeExpansion, g.Viol.TGD.Name))
	g.Tuples = append(g.Tuples[:d.TupleIdx], g.Tuples[d.TupleIdx+1:]...)
	u.Stats.Expansions++
	if g.Empty() {
		u.closeGroup(g)
	}
	return nil
}

func (e *Engine) applyUnify(u *Update, g *FrontierGroup, d Decision) error {
	if !g.Positive {
		return fmt.Errorf("%w: unify on a negative group", ErrBadDecision)
	}
	if d.TupleIdx < 0 || d.TupleIdx >= len(g.Tuples) {
		return fmt.Errorf("%w: tuple index %d out of range", ErrStaleDecision, d.TupleIdx)
	}
	t := g.Tuples[d.TupleIdx]
	c := e.queryContext(u)
	snap := &c.snap
	target, ok := snap.GetTuple(d.Target)
	if !ok {
		return fmt.Errorf("%w: unify target #%d not visible", ErrStaleDecision, d.Target)
	}
	sub, ok := model.Unifier(t, target)
	if !ok {
		return fmt.Errorf("%w: #%d is not more specific than %s", ErrStaleDecision, d.Target, t)
	}
	// Plan the global null-replacements: for every substituted null, in
	// null-ID order, the null-occurrence correction query is logged and,
	// when the null occurs in the database, its replacement is planned.
	// A fresh null that never reached the database occurs nowhere, so
	// the query finds nothing and plans no write.
	nulls := make([]model.Value, 0, len(sub))
	for k := range sub {
		nulls = append(nulls, k)
	}
	sort.Slice(nulls, func(i, j int) bool { return nulls[i].NullID() < nulls[j].NullID() })

	// First rewrite the update's pending state (groups, queued values,
	// planned writes); the replacement ops appended afterwards must not
	// be rewritten by their own substitution.
	u.applySubst(sub)
	for _, k := range nulls {
		if e.logsReads() {
			e.record(u, e.reads.nullOcc(k, u.Number))
		}
		if len(snap.TuplesWithNull(k)) > 0 {
			u.writeSet = append(u.writeSet, ReplaceNull(k, sub[k]).because(causeUnification, g.Viol.TGD.Name))
		}
	}
	// The unified tuple disappears (§2.2).
	g.Tuples = append(g.Tuples[:d.TupleIdx], g.Tuples[d.TupleIdx+1:]...)
	u.Stats.Unifications++
	if g.Empty() {
		u.closeGroup(g)
	}
	return nil
}

func (e *Engine) applyDelete(u *Update, g *FrontierGroup, d Decision) error {
	if g.Positive {
		return fmt.Errorf("%w: delete-subset on a positive group", ErrBadDecision)
	}
	if len(d.Subset) == 0 {
		return fmt.Errorf("%w: empty deletion subset", ErrBadDecision)
	}
	in := make(map[storage.TupleID]bool, len(g.Candidates))
	for _, id := range g.Candidates {
		in[id] = true
	}
	seen := make(map[storage.TupleID]bool, len(d.Subset))
	for _, id := range d.Subset {
		if !in[id] {
			return fmt.Errorf("%w: #%d is not a candidate", ErrStaleDecision, id)
		}
		if seen[id] {
			return fmt.Errorf("%w: duplicate candidate #%d", ErrBadDecision, id)
		}
		seen[id] = true
	}
	subset := append([]storage.TupleID(nil), d.Subset...)
	sort.Slice(subset, func(i, j int) bool { return subset[i] < subset[j] })
	for _, id := range subset {
		u.writeSet = append(u.writeSet, DeleteID(id).because(causeDeletionChoice, g.Viol.TGD.Name))
	}
	u.Stats.DeletionChoices++
	u.closeGroup(g)
	return nil
}

// applyReconfirm implements the reconfirmation operation of §2.3: the
// user asserts that a proper, nonempty subset of the candidates is not
// to be deleted. If a single candidate remains afterwards the repair
// becomes deterministic and its deletion is planned.
func (e *Engine) applyReconfirm(u *Update, g *FrontierGroup, d Decision) error {
	if g.Positive {
		return fmt.Errorf("%w: reconfirm on a positive group", ErrBadDecision)
	}
	if len(d.Subset) == 0 || len(d.Subset) >= len(g.Candidates) {
		return fmt.Errorf("%w: reconfirmed subset must be a proper nonempty subset", ErrBadDecision)
	}
	keep := make(map[storage.TupleID]bool, len(d.Subset))
	for _, id := range d.Subset {
		found := false
		for _, c := range g.Candidates {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: #%d is not a candidate", ErrStaleDecision, id)
		}
		keep[id] = true
	}
	var rest []storage.TupleID
	for _, c := range g.Candidates {
		if !keep[c] {
			rest = append(rest, c)
		}
	}
	g.Candidates = rest
	u.Stats.Reconfirmations++
	if len(rest) == 1 {
		u.writeSet = append(u.writeSet, DeleteID(rest[0]).because(causeReconfirmation, g.Viol.TGD.Name))
		u.Stats.DeletionChoices++
		u.closeGroup(g)
	}
	return nil
}
