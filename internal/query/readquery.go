package query

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"

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
// Besides the intensional query it records the canonical answer and a
// per-relation read vector — the stripe sequence number of each of the
// mapping's relations at read time — so conflict checks
// can ask whether a later write retroactively changes what was read,
// even after the reader's own repairs have moved the current answer
// on. The vector replaces an earlier single global read sequence: a
// read's validity boundary is judged per stripe, which stays exact
// when stripes advance independently (any evaluation that observed
// different stripes at different moments).
type ViolationRead struct {
	TGD      *tgd.TGD
	SeedRel  string
	SeedVals []model.Value
	// SeedSide records which atoms the seed was bound against; the
	// re-evaluation used by AffectedBy reproduces the same query.
	SeedSide Side
	ReaderNo int
	// Answer is the canonical rendering of the violations read; multi
	// marks an Answer of two or more violations, the one shape a
	// conflict check compares by rendering rather than in place.
	Answer string
	multi  bool
	// ReadSeqs is the per-relation read vector, aligned with
	// TGD.Relations(): each relation's stripe sequence number when the
	// read happened. Two reads of the same seeded query with equal
	// vectors observed identical relevant state (the answer depends on
	// no other relations), so the vector doubles as the read's identity
	// in String.
	ReadSeqs []int64
}

// NewViolationRead evaluates the seeded violation query on the
// reader's engine and returns both the stored read descriptor and the
// violations it found. The reader is the engine's snapshot reader. The
// read vector is captured before the evaluation: per stripe, everything
// at or below the captured sequence is already applied (stripe
// sequences publish under the store's write lock), so the vector lower-bounds
// what the evaluation saw in each relation and is exact whenever no
// writer runs during the read — which the scheduler guarantees: it
// runs one chase step at a time, so no write lands during a read.
//
// seedVals is retained, not copied: callers pass a write record's
// immutable value slice.
func NewViolationRead(e *Engine, t *tgd.TGD, seedRel string, seedVals []model.Value, side Side) (*ViolationRead, []Violation) {
	return AppendViolationRead(nil, e, t, seedRel, seedVals, side)
}

// AppendViolationRead is NewViolationRead appending the violations to
// dst, so that a caller consuming them at once reuses one array: the
// read then allocates only itself and its read vector, and each
// violation found its own Vals and Witness.
func AppendViolationRead(dst []Violation, e *Engine, t *tgd.TGD, seedRel string, seedVals []model.Value, side Side) (*ViolationRead, []Violation) {
	rels := t.Relations()
	seqs := make([]int64, len(rels))
	for i, rel := range rels {
		seqs[i] = e.snap.RelSeq(rel)
	}
	q := &ViolationRead{
		TGD:      t,
		SeedRel:  seedRel,
		SeedVals: seedVals,
		SeedSide: side,
		ReaderNo: e.snap.Reader(),
		ReadSeqs: seqs,
	}
	out := e.AppendViolationsSeeded(dst, t, seedRel, seedVals, side)
	vs := out[len(dst):]
	q.Answer, q.multi = e.canonViolations(vs), len(vs) > 1
	return q, out
}

// readCeil returns the read vector's boundary for a relation (0 when
// the relation is outside the mapping, which callers pre-filter).
func (q *ViolationRead) readCeil(rel string) int64 {
	for i, r := range q.TGD.Relations() {
		if r == rel {
			return q.ReadSeqs[i]
		}
	}
	return 0
}

// canonViolations renders a violation set canonically, through the
// engine's reusable key buffer. The empty and the singleton answer —
// all but a sliver of the reads a chase stores — need no key slice,
// sort or join.
func (e *Engine) canonViolations(vs []Violation) string {
	switch len(vs) {
	case 0:
		return ""
	case 1:
		e.keyBuf = vs[0].AppendKey(e.keyBuf[:0])
		return string(e.keyBuf)
	}
	keys := make([]string, len(vs))
	for i := range vs {
		e.keyBuf = vs[i].AppendKey(e.keyBuf[:0])
		keys[i] = string(e.keyBuf)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// Kind implements ReadQuery.
func (q *ViolationRead) Kind() Kind { return KindViolation }

// Reader implements ReadQuery.
func (q *ViolationRead) Reader() int { return q.ReaderNo }

// Relations implements ReadQuery: every relation of the mapping.
func (q *ViolationRead) Relations() []string { return q.TGD.Relations() }

// String implements ReadQuery. It identifies the read, including its
// read-time vector: the same intensional query read at different
// moments guards different answers, so both instances are kept —
// unless the vectors are equal, in which case no write landed in any
// relation the answer depends on and the reads are genuinely the
// same.
func (q *ViolationRead) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation-query[%s seeded %s by %s @", q.TGD.Name, q.SeedSide,
		model.Tuple{Rel: q.SeedRel, Vals: q.SeedVals})
	for i := range q.ReadSeqs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", q.ReadSeqs[i])
	}
	b.WriteByte(']')
	return b.String()
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
// one engine, whose run pools, register files and key buffer stay warm
// from check to check, and one snapshot value each check's view is
// derived into — the reader's live view narrowed to the read vector and
// the write's window or mask. A Checker belongs to one goroutine (a
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
	return e.ViolationsSeeded(q.TGD, q.SeedRel, q.SeedVals, q.SeedSide)
}

// AffectedBy implements ReadQuery: does the write change what was read
// at read time? Whether the write precedes or follows the read is
// judged against the read vector's boundary for the write's own
// relation — the per-stripe validity window — not a global sequence.
// For a write past its relation's boundary, the answer is re-evaluated
// on the read-time state (each relation cut at its own boundary)
// augmented with the interference window — every write up to and
// including w, in any relation, by writers other than the reader (the
// reader's own later repairs must not hide the change; the global
// upper bound is meaningful because sequence numbers are totally
// ordered backend-wide). For a write at or below its
// relation's boundary (the dependency direction of §5.1), the
// read-time state is re-evaluated with that single write masked.
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
	if w.Seq > q.readCeil(w.Rel) {
		snap.SetRelWindow(q.TGD.Relations(), q.ReadSeqs, w.Seq)
	} else {
		snap.SetRelCeilings(q.TGD.Relations(), q.ReadSeqs)
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
	c.view(st, q.ReaderNo).SetRelWindow(q.TGD.Relations(), q.ReadSeqs, st.CurrentSeq())
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

// Read identity. A chase step performs the same intensional read many
// times (every recheck, every re-enumeration of a frontier group's
// options); the update's read log stores each distinct read once. Two
// reads are the same read iff they are of the same kind and agree on
// everything String renders — for a violation query the mapping, the
// seed (side, relation, values) and the read vector; for the
// correction and content queries their relation and values — compared
// here on the comparable parts themselves (the mapping pointer, the
// two-word interned values, the sequence numbers) so that logging a
// read renders nothing. String stays the diagnostic form and the
// reference the tests compare this identity against.

// hashWord folds one word into a running 64-bit hash (multiply-xorshift
// per word; the constant is splitmix64's).
func hashWord(h, x uint64) uint64 {
	h = (h ^ x) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// hashSeed seeds the hashing of relation and mapping names; identity
// hashes never leave the process.
var hashSeed = maphash.MakeSeed()

func hashString(h uint64, s string) uint64 {
	return hashWord(h, maphash.String(hashSeed, s))
}

func hashVals(h uint64, vals []model.Value) uint64 {
	for _, v := range vals {
		h = hashWord(h, v.Hash())
	}
	return hashWord(h, uint64(len(vals)))
}

// ReadHash hashes a read's identity: SameRead(a, b) implies
// ReadHash(a) == ReadHash(b). Constants hash by address
// (model.Value.Hash), so the hash identifies a read only while the read
// is alive: a structure keyed by it must retain the reads it hashed.
func ReadHash(q ReadQuery) uint64 {
	h := uint64(q.Kind()) + 0x9e3779b97f4a7c15
	switch r := q.(type) {
	case *ViolationRead:
		h = hashString(h, r.TGD.Name)
		h = hashWord(h, uint64(r.SeedSide))
		h = hashString(h, r.SeedRel)
		h = hashVals(h, r.SeedVals)
		for _, seq := range r.ReadSeqs {
			h = hashWord(h, uint64(seq))
		}
	case *MoreSpecificRead:
		h = hashVals(hashString(h, r.Rel), r.Pattern)
	case *NullOccRead:
		h = hashWord(h, r.Null.Hash())
	case *ContentRead:
		h = hashVals(hashString(h, r.Rel), r.Vals)
	default:
		h = hashString(h, q.String())
	}
	return h
}

// SameRead reports whether a and b are the same intensional read (see
// above). Reads of a kind this package does not define compare by
// their String rendering.
func SameRead(a, b ReadQuery) bool {
	switch x := a.(type) {
	case *ViolationRead:
		y, ok := b.(*ViolationRead)
		// Same mapping, so the vectors align with the same relations;
		// only the sequence numbers can differ.
		return ok && x.TGD == y.TGD && x.SeedSide == y.SeedSide && x.SeedRel == y.SeedRel &&
			slices.Equal(x.SeedVals, y.SeedVals) && slices.Equal(x.ReadSeqs, y.ReadSeqs)
	case *MoreSpecificRead:
		y, ok := b.(*MoreSpecificRead)
		return ok && x.Rel == y.Rel && slices.Equal(x.Pattern, y.Pattern)
	case *NullOccRead:
		y, ok := b.(*NullOccRead)
		return ok && x.Null == y.Null
	case *ContentRead:
		y, ok := b.(*ContentRead)
		return ok && x.Rel == y.Rel && slices.Equal(x.Vals, y.Vals)
	default:
		return a.Kind() == b.Kind() && a.String() == b.String()
	}
}
