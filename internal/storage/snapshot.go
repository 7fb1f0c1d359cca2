package storage

import "youtopia/internal/model"

// RelSeq pairs a relation with a stripe sequence number: one entry of
// a per-relation read vector. Conflict checks capture such vectors at
// read time and snapshots replay them as per-relation visibility
// ceilings, so a read's validity window is judged stripe by stripe
// instead of against one global sequence number.
type RelSeq struct {
	Rel string
	Seq int64
}

// seqOf returns the vector's entry for rel, or ok == false when the
// relation is not part of the vector. Vectors are tiny (a mapping's
// relation set), so lookup is a linear scan without allocation.
func seqOf(vec []RelSeq, rel string) (int64, bool) {
	for i := range vec {
		if vec[i].Rel == rel {
			return vec[i].Seq, true
		}
	}
	return 0, false
}

// Snapshot is a read view of a backend at a reader priority: versions
// written by updates with priority number ≤ reader are visible, the
// maximal one in (writer, seq) order winning. A snapshot may carry a
// mask excluding one specific version; PRECISE dependency analysis
// uses masks to compare query answers with and without a single write.
//
// Snapshots are cheap descriptors over live store state, not frozen
// copies: results reflect the store at call time. Single-relation
// methods take that relation's stripe read lock for their own
// duration, so individual calls are atomic and safe to issue from any
// goroutine; methods that span relations (TuplesWithNull,
// VisibleFacts) lock stripe-by-stripe and are atomic per relation
// only. Two successive calls may observe
// different store states if a writer runs in between — multi-call
// protocols need external phase locking.
//
// A committed-state snapshot (Backend.EpochSnap) is the same live view
// with one more filter: it admits only versions of committed writers.
type Snapshot struct {
	store  *Store
	reader int

	// noLock marks snapshots handed out by store code that already
	// holds the locks the snapshot's calls need; their methods must not
	// re-lock.
	noLock bool

	// committedOnly hides versions of uncommitted writers; writer 0,
	// the initial load, counts as committed.
	committedOnly bool

	masked     bool
	maskWriter int
	maskSeq    int64

	// hasCeil restricts visibility to versions with seq <= ceilSeq,
	// reconstructing the state as of a past read. hasWindow further
	// admits versions in (ceilSeq, windowSeq] written by writers other
	// than the reader — "the interference that landed after my read,
	// excluding my own later repairs" (used by the as-of-read-time
	// conflict check of Algorithm 4).
	hasCeil   bool
	ceilSeq   int64
	hasWindow bool
	windowSeq int64

	// relCeils, when hasRelCeil is set, replaces the single global
	// ceiling with a per-relation vector: a version in relation R is
	// within the ceiling iff its seq is at most the vector's entry for
	// R. Relations absent from the vector are unconstrained — a read
	// vector always covers every relation its query ranges over, so
	// missing entries can only belong to relations the query ignores.
	// The window semantics compose exactly as with the global ceiling.
	hasRelCeil bool
	relCeils   []RelSeq
}

// rlock acquires a stripe's read lock unless this snapshot was minted
// under already-held locks.
func (sn *Snapshot) rlock(s *stripe) {
	if !sn.noLock {
		s.rlock()
	}
}

func (sn *Snapshot) runlock(s *stripe) {
	if !sn.noLock {
		s.runlock()
	}
}

// Reader returns the snapshot's reader priority.
func (sn *Snapshot) Reader() int { return sn.reader }

// RelSeq returns the highest sequence number applied in the relation's
// stripe of the live store the snapshot was taken from, whatever the
// snapshot's filters (0 for an undeclared or untouched relation).
// Readers capture their per-relation read vectors through it.
func (sn *Snapshot) RelSeq(rel string) int64 {
	s := sn.store.stripes[rel]
	if s == nil {
		return 0
	}
	return s.seq.Load()
}

// SetMask hides the version (writer, seq) from sn. Used to answer
// "what would this query return had that write not happened?". The
// Set* narrowings modify sn in place, so a conflict checker derives
// each check's view into one reused value; a caller that must keep the
// wider view narrows a copy of the Snapshot value.
func (sn *Snapshot) SetMask(writer int, seq int64) {
	sn.masked, sn.maskWriter, sn.maskSeq = true, writer, seq
}

// WithCeiling returns a snapshot restricted to versions with sequence
// numbers at most seq: the state as of that moment (modulo versions
// since removed by aborts, whose readers are cascaded independently).
func (sn *Snapshot) WithCeiling(seq int64) *Snapshot {
	out := *sn
	out.hasCeil = true
	out.ceilSeq = seq
	return &out
}

// WithWindow returns a snapshot of the state as of sequence ceil,
// augmented with the writes that other writers performed in
// (ceil, upto] — the reader's own post-ceiling writes stay hidden.
func (sn *Snapshot) WithWindow(ceil, upto int64) *Snapshot {
	out := *sn
	out.hasCeil = true
	out.ceilSeq = ceil
	out.hasWindow = true
	out.windowSeq = upto
	return &out
}

// SetRelCeilings restricts sn, per relation, to versions with sequence
// numbers at most the vector's entry — the state a read observed
// judged stripe by stripe. Relations absent from the vector are
// unrestricted. The caller must keep the vector immutable for the
// snapshot's lifetime.
func (sn *Snapshot) SetRelCeilings(ceils []RelSeq) {
	sn.hasRelCeil, sn.relCeils = true, ceils
}

// SetRelWindow narrows sn to the state as of the per-relation ceiling
// vector, augmented with the writes other writers performed past their
// relation's ceiling up to sequence upto — the reader's own
// post-ceiling writes stay hidden. It is WithWindow with the read
// boundary judged per stripe, applied in place.
func (sn *Snapshot) SetRelWindow(ceils []RelSeq, upto int64) {
	sn.hasRelCeil, sn.relCeils = true, ceils
	sn.hasWindow, sn.windowSeq = true, upto
}

// admits reports whether a version of a tuple in rel is visible under
// all of the snapshot's filters.
func (sn *Snapshot) admits(v *version, rel string) bool {
	if v.writer > sn.reader {
		return false
	}
	if sn.masked && v.writer == sn.maskWriter && v.seq == sn.maskSeq {
		return false
	}
	if sn.committedOnly && v.writer != 0 && !sn.store.isCommitted(v.writer) {
		return false
	}
	ceil, haveCeil := int64(0), false
	if sn.hasRelCeil {
		if c, ok := seqOf(sn.relCeils, rel); ok {
			ceil, haveCeil = c, true
		}
	} else if sn.hasCeil {
		ceil, haveCeil = sn.ceilSeq, true
	}
	if haveCeil && v.seq > ceil {
		if !sn.hasWindow {
			return false
		}
		if v.seq > sn.windowSeq || v.writer == sn.reader {
			return false
		}
	}
	return true
}

// versionOf returns the visible version of a tuple record of relation
// rel, or nil. Callers hold the owning stripe's lock.
func (sn *Snapshot) versionOf(rec *tupleRec, rel string) *version {
	for i := len(rec.versions) - 1; i >= 0; i-- {
		v := &rec.versions[i]
		if sn.admits(v, rel) {
			return v
		}
	}
	return nil
}

// Get returns the values of the tuple visible to this snapshot, or
// ok == false when the tuple does not exist, is not yet visible, or is
// deleted. The returned slice is shared; callers must not modify it.
func (sn *Snapshot) Get(id TupleID) ([]model.Value, bool) {
	s := sn.store.stripeOf(id)
	if s == nil {
		return nil, false
	}
	sn.rlock(s)
	defer sn.runlock(s)
	return sn.getInStripe(s, id)
}

// getLocked resolves a tuple under already-held locks (the caller
// holds the owning stripe's lock, directly or via lockAll).
func (sn *Snapshot) getLocked(id TupleID) ([]model.Value, bool) {
	s := sn.store.stripeOf(id)
	if s == nil {
		return nil, false
	}
	return sn.getInStripe(s, id)
}

func (sn *Snapshot) getInStripe(s *stripe, id TupleID) ([]model.Value, bool) {
	tr, ok := s.tuples[id]
	if !ok {
		return nil, false
	}
	v := sn.versionOf(tr, s.rel)
	if v == nil || v.deleted {
		return nil, false
	}
	return v.vals, true
}

// GetTuple is Get returning a model.Tuple.
func (sn *Snapshot) GetTuple(id TupleID) (model.Tuple, bool) {
	s := sn.store.stripeOf(id)
	if s == nil {
		return model.Tuple{}, false
	}
	sn.rlock(s)
	defer sn.runlock(s)
	vals, ok := sn.getInStripe(s, id)
	if !ok {
		return model.Tuple{}, false
	}
	return model.Tuple{Rel: s.rel, Vals: vals}, true
}

// Rel returns the relation a tuple ID belongs to, regardless of
// visibility.
func (sn *Snapshot) Rel(id TupleID) (string, bool) {
	s := sn.store.stripeOf(id)
	if s == nil {
		return "", false
	}
	sn.rlock(s)
	defer sn.runlock(s)
	if _, ok := s.tuples[id]; !ok {
		return "", false
	}
	return s.rel, true
}

// RelIDs returns the IDs of every tuple of the relation (visible or
// not) in ascending order. Callers must verify visibility via Get and
// must not modify the slice; it is the cheapest candidate source for
// unconstrained scans, whatever the snapshot's filters.
func (sn *Snapshot) RelIDs(rel string) []TupleID {
	s := sn.store.stripes[rel]
	if s == nil {
		return nil
	}
	sn.rlock(s)
	defer sn.runlock(s)
	return s.ids
}

// ScanRel calls fn for every visible tuple of the relation in tuple-ID
// order; fn returning false stops the scan. The stripe's read lock is
// held across the whole scan, so fn must not call back into the store.
func (sn *Snapshot) ScanRel(rel string, fn func(id TupleID, vals []model.Value) bool) {
	s := sn.store.stripes[rel]
	if s == nil {
		return
	}
	sn.rlock(s)
	defer sn.runlock(s)
	sn.scanStripe(s, fn)
}

func (sn *Snapshot) scanStripe(s *stripe, fn func(id TupleID, vals []model.Value) bool) {
	for _, id := range s.ids {
		if vals, ok := sn.getInStripe(s, id); ok {
			if !fn(id, vals) {
				return
			}
		}
	}
}

// CountRel returns the number of visible tuples in the relation: a
// scan of the relation under its stripe read lock.
func (sn *Snapshot) CountRel(rel string) int {
	n := 0
	sn.ScanRel(rel, func(TupleID, []model.Value) bool { n++; return true })
	return n
}

// RelStats summarizes a relation for the query planner: a row count
// plus, per column, the distinct-value fanout. Live / Distinct[c]
// estimates the candidate list an equality probe on column c returns.
type RelStats struct {
	// Live is the stripe's tuple count: every tuple it holds, whatever
	// its visibility.
	Live int
	// Distinct[c] is the number of distinct values in column c's index;
	// nil for empty or zero-arity relations.
	Distinct []int
}

// RelStats returns cardinality statistics for the relation, counted
// off its live stripe and value index under the stripe read lock; a
// plan asks once per join order it computes. The numbers describe what
// the stripe holds, not the snapshot's visibility — they feed ordering
// heuristics, never correctness.
func (sn *Snapshot) RelStats(rel string) RelStats {
	s := sn.store.stripes[rel]
	if s == nil {
		return RelStats{}
	}
	sn.rlock(s)
	defer sn.runlock(s)
	st := RelStats{Live: len(s.tuples)}
	if st.Live > 0 && len(s.valIdx) > 0 {
		st.Distinct = make([]int, len(s.valIdx))
		for c := range s.valIdx {
			st.Distinct[c] = len(s.valIdx[c].m)
		}
	}
	return st
}

// CandidatesByValue returns, in ascending order, the IDs of tuples
// that have some version with value v in column col of rel. Callers
// must verify candidates against the snapshot via Get; the index
// over-approximates across versions. A single candidate is returned in
// one, the caller's buffer, so the probe allocates nothing; callers
// must not modify the result.
func (sn *Snapshot) CandidatesByValue(rel string, col int, v model.Value, one *[1]TupleID) []TupleID {
	s := sn.store.stripes[rel]
	if s == nil {
		return nil
	}
	sn.rlock(s)
	defer sn.runlock(s)
	return sn.candidatesByValueInStripe(s, col, v, one)
}

func (sn *Snapshot) candidatesByValueInStripe(s *stripe, col int, v model.Value, one *[1]TupleID) []TupleID {
	if col < 0 || col >= len(s.valIdx) {
		return nil
	}
	return s.valIdx[col].get(v.Hash(), one)
}

// LookupContent returns the IDs of visible tuples whose content equals
// t, in ascending order (at most one unless duplicate content slipped
// in through concurrent writers).
func (sn *Snapshot) LookupContent(t model.Tuple) []TupleID {
	s := sn.store.stripes[t.Rel]
	if s == nil {
		return nil
	}
	sn.rlock(s)
	defer sn.runlock(s)
	var out []TupleID
	var one [1]TupleID
	for _, id := range s.contentIdx.get(sn.store.contentHash(t.Vals), &one) {
		if vals, ok := sn.getInStripe(s, id); ok && (model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			out = append(out, id)
		}
	}
	return out
}

// ContainsContent reports whether a visible tuple with content t
// exists.
func (sn *Snapshot) ContainsContent(t model.Tuple) bool {
	return len(sn.LookupContent(t)) > 0
}

// nullIDs returns the null index's members for x, a single one in one.
func (st *Store) nullIDs(x model.Value, one *[1]TupleID) []TupleID {
	st.nullMu.Lock()
	defer st.nullMu.Unlock()
	return st.nullIdx.get(x.Hash(), one)
}

// TuplesWithNull returns, in ascending order, the IDs of visible
// tuples containing the labeled null x. The null index spans
// relations, so visibility is verified
// stripe-by-stripe; consecutive hits cluster by stripe and share one
// lock acquisition. ReplaceNull calls it through a snapshot minted
// under every stripe lock.
func (sn *Snapshot) TuplesWithNull(x model.Value) []TupleID {
	var one [1]TupleID
	var out []TupleID
	var cur *stripe
	for _, id := range sn.store.nullIDs(x, &one) {
		s := sn.store.stripeOf(id)
		if s == nil {
			continue
		}
		if s != cur {
			if cur != nil {
				sn.runlock(cur)
			}
			cur = s
			sn.rlock(cur)
		}
		vals, ok := sn.getInStripe(s, id)
		if !ok {
			continue
		}
		for _, v := range vals {
			if v == x {
				out = append(out, id)
				break
			}
		}
	}
	if cur != nil {
		sn.runlock(cur)
	}
	return out
}

// MoreSpecific returns the visible tuples of t's relation that are
// more specific than t (Definition 2.4), excluding exact duplicates of
// t, in ascending ID order. This is the correction query the forward
// chase asks for each generated tuple (§4.2).
//
// Candidate narrowing uses the most selective constant position of t;
// if t has no constants the relation is scanned.
func (sn *Snapshot) MoreSpecific(t model.Tuple) []TupleID {
	s := sn.store.stripes[t.Rel]
	if s == nil {
		return nil
	}
	sn.rlock(s)
	defer sn.runlock(s)
	bestCol := -1
	bestSize := -1
	for i, v := range t.Vals {
		if !v.IsConst() {
			continue
		}
		size := s.valIdx[i].count(v.Hash())
		if bestCol == -1 || size < bestSize {
			bestCol, bestSize = i, size
		}
	}
	var out []TupleID
	check := func(id TupleID, vals []model.Value) {
		if model.MoreSpecificVals(vals, t.Vals) && !(model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			out = append(out, id)
		}
	}
	if bestCol >= 0 {
		var one [1]TupleID
		for _, id := range sn.candidatesByValueInStripe(s, bestCol, t.Vals[bestCol], &one) {
			if vals, ok := sn.getInStripe(s, id); ok {
				check(id, vals)
			}
		}
		return out
	}
	sn.scanStripe(s, func(id TupleID, vals []model.Value) bool {
		check(id, vals)
		return true
	})
	return out
}

// VisibleFacts returns the distinct visible tuple contents of every
// relation, as canonical sets keyed by relation name. The
// serializability checker compares these across executions.
func (sn *Snapshot) VisibleFacts() map[string][]model.Tuple {
	out := make(map[string][]model.Tuple)
	for _, rel := range sn.store.relsByIdx {
		s := sn.store.stripes[rel]
		seen := make(map[string]bool)
		var ts []model.Tuple
		sn.rlock(s)
		sn.scanStripe(s, func(id TupleID, vals []model.Value) bool {
			t := model.Tuple{Rel: rel, Vals: append([]model.Value(nil), vals...)}
			if k := t.Key(); !seen[k] {
				seen[k] = true
				ts = append(ts, t)
			}
			return true
		})
		sn.runlock(s)
		if len(ts) > 0 {
			out[rel] = ts
		}
	}
	return out
}
