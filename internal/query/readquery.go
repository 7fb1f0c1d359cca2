package query

import (
	"fmt"
	"slices"
	"sort"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// This file defines the stored read queries of §4.2 and the
// "retroactively changes the result" checks of Algorithm 4 and §5.1.
//
// A chase step reads the database through a small number of query
// shapes. Each shape is stored intensionally; concurrency control later
// asks whether a freshly performed write changes its answer. The paper
// observes (§5) that correction queries can be checked against a write
// without touching the database, while violation queries need a
// (seeded, therefore cheap) database query; the implementations below
// preserve that asymmetry, which is what makes COARSE cheaper than
// PRECISE.

// Kind classifies a read query.
type Kind uint8

const (
	// KindViolation is the seeded violation query of §4.2.
	KindViolation Kind = iota
	// KindMoreSpecific is the correction query "find tuples in R more
	// specific than t".
	KindMoreSpecific
	// KindNullOcc is the correction query "find all tuples containing
	// labeled null x".
	KindNullOcc
	// KindContent is the set-semantics duplicate/content probe issued
	// by inserts and content deletes.
	KindContent
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindViolation:
		return "violation"
	case KindMoreSpecific:
		return "more-specific"
	case KindNullOcc:
		return "null-occurrence"
	case KindContent:
		return "content"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ReadQuery is a stored, intensional description of one read performed
// by a chase step.
type ReadQuery interface {
	// Kind classifies the query.
	Kind() Kind
	// Reader is the priority number of the update that performed the
	// read.
	Reader() int
	// Relations returns the relations the query ranges over; COARSE
	// charges relation-granularity dependencies against violation
	// queries using this. Correction queries return only their own
	// relation (or nothing), and COARSE never uses it for them.
	Relations() []string
	// AffectedBy reports whether the given write, already applied to
	// the store, retroactively changes this query's answer as seen by
	// the reader. Writes that are invisible to the reader never affect
	// the answer. Only the violation query evaluates anything; it runs
	// on the calling goroutine's checker.
	AffectedBy(c *Checker, st storage.Backend, w storage.WriteRec) bool
	// String renders the query for diagnostics.
	String() string
}

// ViolationRead stores a seeded violation query: "which violations of
// TGD did the write of SeedVals into SeedRel create?" (Example 4.1).
// Besides the intensional query it records the store's sequence number
// at read time and the answer, so conflict checks can ask whether a
// later write retroactively changes what was read, even after the
// reader's own repairs have moved the current answer on. A fresh stored
// read with an empty or single-violation answer is one allocation, and
// a read stored into a released record (Store after Release) none: a
// single violation is held by reference to its own arrays, and several
// are copied into arrays the record owns and keeps across releases.
// The seed relation is held by its index.
type ViolationRead struct {
	TGD      *tgd.TGD
	SeedVals []model.Value
	// ReadSeq is the store's CurrentSeq when the read happened. One lock
	// orders every write, so each version at or below it existed at read
	// time (or was since aborted) and every later write lies above it.
	ReadSeq  int64
	ReaderNo int
	// vals and witness are the answer: the Vals and Witness arrays of
	// the one violation found, or those of every violation found
	// concatenated in witness order. Both are empty for an empty answer
	// and immutable while the read is stored.
	vals    []model.Value
	witness []storage.TupleID
	// seedRel indexes the seed relation in TGD.Relations() (-1 when the
	// mapping does not use it); SeedSide records which atoms the seed
	// was bound against. The re-evaluation used by AffectedBy
	// reproduces the same query.
	seedRel  int32
	SeedSide Side
	// owned marks vals and witness as the record's own arrays, which
	// Store may overwrite once the read is released. Arrays held by
	// reference belong to the violation found and are never written.
	owned bool
}

// ReleasedReader is the reader number of a released stored read, which
// no update has: a read consulted after its release is recognisable.
const ReleasedReader = -1

// NewViolationRead evaluates the seeded violation query on the
// reader's engine and returns both a new stored read descriptor
// (Store) and the violations it found.
func NewViolationRead(e *Engine, t *tgd.TGD, seedRel string, seedVals []model.Value, side Side) (*ViolationRead, []Violation) {
	vs := e.AppendViolationsSeeded(nil, t, seedRel, seedVals, side)
	q := new(ViolationRead)
	q.Store(e, t, seedRel, seedVals, side, vs)
	return q, vs
}

// Store fills q, a new record or a released one (Release), with the
// seeded violation query whose answer on the reader's engine e is vs,
// evaluated just now (Engine.AppendViolationsSeeded). The reader is the
// engine's snapshot reader, and the read sequence is the store's
// current one: it is exact, since no writer runs between the
// evaluation and Store (the scheduler runs one chase step at a time).
//
// seedVals is retained, not copied: callers pass a write record's
// immutable value slice. A single violation's arrays are retained too,
// unless q owns arrays it fits in: nobody may modify them in place.
// Several violations are copied into q's own arrays, which are
// allocated only when those q owns do not fit (Slack).
func (q *ViolationRead) Store(e *Engine, t *tgd.TGD, seedRel string, seedVals []model.Value, side Side, vs []Violation) {
	q.TGD, q.SeedVals, q.SeedSide = t, seedVals, side
	q.ReadSeq, q.ReaderNo = e.snap.CurrentSeq(), e.snap.Reader()
	q.seedRel = int32(slices.Index(t.Relations(), seedRel))
	q.vals, q.witness = q.vals[:0], q.witness[:0]
	if len(vs) == 0 {
		return
	}
	fits := q.Slack(vs) >= 0
	if len(vs) == 1 && !fits {
		q.vals, q.witness, q.owned = vs[0].Vals, vs[0].Witness, false
		return
	}
	if !fits {
		nv, nw := len(vs)*len(vs[0].Vals), len(vs)*len(vs[0].Witness)
		q.vals, q.witness, q.owned = make([]model.Value, 0, nv), make([]storage.TupleID, 0, nw), true
	}
	sorted := append(e.sorted[:0], vs...)
	slices.SortFunc(sorted, func(a, b Violation) int { return slices.Compare(a.Witness, b.Witness) })
	for _, v := range sorted {
		q.vals = append(q.vals, v.Vals...)
		q.witness = append(q.witness, v.Witness...)
	}
	clear(sorted)
	e.sorted = sorted[:0]
}

// Slack returns how many values and tuple IDs the arrays q owns would
// have to spare after holding the answer vs, or -1 when q owns none
// that fit it.
func (q *ViolationRead) Slack(vs []Violation) int {
	if !q.owned {
		return -1
	}
	nv, nw := 0, 0
	if len(vs) > 0 {
		nv, nw = len(vs)*len(vs[0].Vals), len(vs)*len(vs[0].Witness)
	}
	if cap(q.vals) < nv || cap(q.witness) < nw {
		return -1
	}
	return cap(q.vals) - nv + cap(q.witness) - nw
}

// Release empties a read that no update stores any more, for Store to
// reuse: it keeps only the arrays q owns, and its reader reads
// ReleasedReader.
func (q *ViolationRead) Release() {
	vals, witness := q.vals[:0], q.witness[:0]
	if !q.owned {
		vals, witness = nil, nil
	}
	*q = ViolationRead{ReaderNo: ReleasedReader, vals: vals, witness: witness, owned: q.owned}
}

// SeedRel returns the relation the seed was written into, or "" for a
// relation outside the mapping, whose seeded query matches nothing.
func (q *ViolationRead) SeedRel() string {
	if q.seedRel < 0 {
		return ""
	}
	return q.TGD.Relations()[q.seedRel]
}

// answerLen returns the number of violations in the answer.
func (q *ViolationRead) answerLen() int { return len(q.witness) / len(q.TGD.LHS) }

// answerAt returns the i-th violation of the answer, in witness order.
func (q *ViolationRead) answerAt(i int) (vals []model.Value, witness []storage.TupleID) {
	nv, nw := len(q.vals)/q.answerLen(), len(q.TGD.LHS)
	return q.vals[i*nv : (i+1)*nv], q.witness[i*nw : (i+1)*nw]
}

// answerHas reports whether the answer holds the violation v, found by
// binary search over the witnesses.
func (q *ViolationRead) answerHas(v *Violation) bool {
	i, ok := sort.Find(q.answerLen(), func(i int) int {
		_, w := q.answerAt(i)
		return slices.Compare(v.Witness, w)
	})
	if !ok {
		return false
	}
	vals, _ := q.answerAt(i)
	return slices.Equal(v.Vals, vals)
}

// Kind implements ReadQuery.
func (q *ViolationRead) Kind() Kind { return KindViolation }

// Reader implements ReadQuery.
func (q *ViolationRead) Reader() int { return q.ReaderNo }

// Relations implements ReadQuery: every relation of the mapping.
func (q *ViolationRead) Relations() []string { return q.TGD.Relations() }

// String implements ReadQuery. It identifies the read, including its
// read sequence: the same intensional query read at different moments
// guards different answers.
func (q *ViolationRead) String() string {
	return fmt.Sprintf("violation-query[%s seeded %s by %s @%d]", q.TGD.Name, q.SeedSide,
		model.Tuple{Rel: q.SeedRel(), Vals: q.SeedVals}, q.ReadSeq)
}

// mayTouch is a cheap structural prefilter: can values unify with any
// atom of the mapping over the write's relation?
func mayTouch(t *tgd.TGD, rel string, vals []model.Value) bool {
	if vals == nil {
		return false
	}
	for _, atoms := range [2][]tgd.Atom{t.LHS, t.RHS} {
		for _, a := range atoms {
			if a.Rel == rel && unifiable(vals, a) {
				return true
			}
		}
	}
	return false
}

// unifiable reports whether values unify with an atom from an empty
// binding, decided in place: constants match and a variable repeated
// within the atom meets equal values.
func unifiable(vals []model.Value, a tgd.Atom) bool {
	if len(vals) != len(a.Terms) {
		return false
	}
	for i, term := range a.Terms {
		if !term.IsVar {
			if vals[i] != term.Const {
				return false
			}
			continue
		}
		for j := range i {
			if a.Terms[j].IsVar && a.Terms[j].Var == term.Var && vals[j] != vals[i] {
				return false
			}
		}
	}
	return true
}

// Checker is the warm query context of one conflict-checking goroutine:
// one engine, whose run pools and register files stay warm from check
// to check, and one snapshot value each check's view is
// derived into — the reader's live view narrowed to the read sequence
// and the write's window or mask. A Checker belongs to one goroutine (a
// cc.Scheduler keeps one) and is never an
// update attempt's query context. The zero value is ready to use.
type Checker struct {
	eng  Engine
	snap storage.Snapshot
}

// view re-points the checker's engine at reader's unfiltered live view
// of st and returns that view for the caller to narrow in place.
func (c *Checker) view(st storage.Backend, reader int) *storage.Snapshot {
	st.SnapInto(&c.snap, reader)
	c.eng.SetSnapshot(&c.snap)
	return &c.snap
}

// eval re-evaluates the stored query on an engine.
func (q *ViolationRead) eval(e *Engine) []Violation {
	return e.ViolationsSeeded(q.TGD, q.SeedRel(), q.SeedVals, q.SeedSide)
}

// AffectedBy implements ReadQuery: does the write change what was read
// at read time? Whether the write precedes or follows the read is
// judged against the read sequence. For a write past it, the answer is
// re-evaluated on the read-time state augmented with the interference
// window — every write up to and including w, in any relation, by
// writers other than the reader (the reader's own later repairs must
// not hide the change). For a write at or below it (the dependency
// direction of §5.1), the read-time state is re-evaluated with that
// single write masked.
// Either way a difference from the recorded answer means the write
// influences the read. This is the "single query combining the
// original violation query with information about the new tuple" of
// §5; modifications are delete-then-insert records, exactly as the
// paper prescribes. The evaluation runs on the checker c, compared
// against the recorded answer in place (Engine.answerDiffers).
func (q *ViolationRead) AffectedBy(c *Checker, st storage.Backend, w storage.WriteRec) bool {
	if w.Writer > q.ReaderNo {
		return false // invisible to the reader
	}
	if !q.TGD.UsesRelation(w.Rel) {
		return false
	}
	if !mayTouch(q.TGD, w.Rel, w.After) && !mayTouch(q.TGD, w.Rel, w.Before) {
		return false
	}
	snap := c.view(st, q.ReaderNo)
	if w.Seq > q.ReadSeq {
		snap.SetWindow(q.ReadSeq, w.Seq)
	} else {
		snap.SetCeiling(q.ReadSeq)
		snap.SetMask(w.Writer, w.Seq)
	}
	return c.eng.answerDiffers(q)
}

// AffectedByRemoval reports whether undoing the given writes — an
// aborted writer's removed log, already taken out of the store —
// retroactively changes this query's answer as seen by the reader.
//
// This is the abort-side counterpart of AffectedBy, and it exists
// because an abort can invalidate verdicts that earlier write-side
// checks delivered honestly: a check of write w evaluates the
// read-time state plus the interference up to w, and if part of that
// interference is later rolled back — and its writer's rerun takes a
// different path — no subsequent write ever re-asks the question,
// leaving the reader's guarded answer stale against the state it will
// actually commit over. Structural queries never have the problem
// (their write-side checks are state-independent, so a matching write
// either already aborted the reader or already recorded the
// dependency that cascades it); only the violation query's
// database-evaluated check can have its verdict flipped by a removal.
// The re-evaluation therefore runs the read-time state forward over
// ALL currently live interference (window open to the present) — if
// that drifted from the recorded answer, the reader must abort and
// rerun.
//
// The removed records only gate the evaluation: a removal is relevant
// when some removed write was visible to the reader and could touch
// the mapping. Irrelevant removals return false without touching the
// database.
func (q *ViolationRead) AffectedByRemoval(c *Checker, st storage.Backend, removed []storage.WriteRec) bool {
	relevant := false
	for _, w := range removed {
		if w.Writer > q.ReaderNo || !q.TGD.UsesRelation(w.Rel) {
			continue
		}
		if mayTouch(q.TGD, w.Rel, w.After) || mayTouch(q.TGD, w.Rel, w.Before) {
			relevant = true
			break
		}
	}
	if !relevant {
		return false
	}
	c.view(st, q.ReaderNo).SetWindow(q.ReadSeq, st.CurrentSeq())
	return c.eng.answerDiffers(q)
}

// MoreSpecificRead stores the correction query "find tuples of Rel
// more specific than Pattern" (§4.2).
type MoreSpecificRead struct {
	Rel      string
	Pattern  []model.Value
	ReaderNo int
}

// Kind implements ReadQuery.
func (q *MoreSpecificRead) Kind() Kind { return KindMoreSpecific }

// Reader implements ReadQuery.
func (q *MoreSpecificRead) Reader() int { return q.ReaderNo }

// Relations implements ReadQuery.
func (q *MoreSpecificRead) Relations() []string { return []string{q.Rel} }

// String implements ReadQuery.
func (q *MoreSpecificRead) String() string {
	return fmt.Sprintf("more-specific-query[%s]", model.Tuple{Rel: q.Rel, Vals: q.Pattern})
}

// AffectedBy implements ReadQuery structurally, without touching the
// database: a write changes the answer iff it writes or removes a
// tuple more specific than the pattern.
func (q *MoreSpecificRead) AffectedBy(_ *Checker, _ storage.Backend, w storage.WriteRec) bool {
	if w.Writer > q.ReaderNo || w.Rel != q.Rel {
		return false
	}
	match := func(vals []model.Value) bool {
		return vals != nil && model.MoreSpecificVals(vals, q.Pattern)
	}
	return match(w.After) || match(w.Before)
}

// NullOccRead stores the correction query "find all tuples containing
// labeled null X" (§4.2): the write set of a unification.
type NullOccRead struct {
	Null     model.Value
	ReaderNo int
}

// Kind implements ReadQuery.
func (q *NullOccRead) Kind() Kind { return KindNullOcc }

// Reader implements ReadQuery.
func (q *NullOccRead) Reader() int { return q.ReaderNo }

// Relations implements ReadQuery: the query ranges over the whole
// database, but COARSE computes correction-query dependencies exactly
// from the write log (§5.1.1), so no relation set is needed.
func (q *NullOccRead) Relations() []string { return nil }

// String implements ReadQuery.
func (q *NullOccRead) String() string {
	return fmt.Sprintf("null-occurrence-query[%s]", q.Null)
}

// AffectedBy implements ReadQuery: as the paper notes, "a given tuple
// write changes the answer to a correction query either on all
// databases, or on none" — here, iff the written tuple contains the
// null (before or after).
func (q *NullOccRead) AffectedBy(_ *Checker, _ storage.Backend, w storage.WriteRec) bool {
	if w.Writer > q.ReaderNo {
		return false
	}
	has := func(vals []model.Value) bool {
		for _, v := range vals {
			if v == q.Null {
				return true
			}
		}
		return false
	}
	return has(w.Before) || has(w.After)
}

// ContentRead stores the set-semantics probe "is the fact (Rel, Vals)
// present?". Inserts log it when they no-op against a visible
// duplicate; content deletes log it to pin the set of copies they
// removed. It is checked structurally.
type ContentRead struct {
	Rel      string
	Vals     []model.Value
	ReaderNo int
}

// Kind implements ReadQuery.
func (q *ContentRead) Kind() Kind { return KindContent }

// Reader implements ReadQuery.
func (q *ContentRead) Reader() int { return q.ReaderNo }

// Relations implements ReadQuery.
func (q *ContentRead) Relations() []string { return []string{q.Rel} }

// String implements ReadQuery with the tuple's cheap canonical key
// rather than display formatting.
func (q *ContentRead) String() string {
	return "content-query[" + (model.Tuple{Rel: q.Rel, Vals: q.Vals}).Key() + "]"
}

// AffectedBy implements ReadQuery: a write affects the probe iff it
// writes or removes exactly this content.
func (q *ContentRead) AffectedBy(_ *Checker, _ storage.Backend, w storage.WriteRec) bool {
	if w.Writer > q.ReaderNo || w.Rel != q.Rel {
		return false
	}
	return slices.Equal(w.Before, q.Vals) || slices.Equal(w.After, q.Vals)
}
