package storage

import (
	"slices"

	"youtopia/internal/model"
)

// Snapshot is a read view of a backend at a reader priority: versions
// written by updates with priority number ≤ reader are visible, the
// maximal one in (writer, seq) order winning. The conflict checks
// narrow a view with one sequence number: a ceiling reconstructs the
// state a stored read saw when the store's CurrentSeq was at it, and a
// window widens that state by other writers' later writes. A mask
// excludes one specific version; PRECISE dependency analysis uses masks
// to compare query answers with and without a single write.
//
// Snapshots are cheap descriptors over live store state, not frozen
// copies: results reflect the store at call time. Each method holds
// the store's read lock for its own duration, so every call is atomic
// and safe to issue from any goroutine. Two successive calls may
// observe different store states if a writer runs in between —
// multi-call protocols need external phasing.
//
// A committed-state snapshot (Backend.EpochSnap) is the same live view
// with one more filter: it admits only versions of committed writers.
type Snapshot struct {
	store  *Store
	reader int

	// noLock marks snapshots handed out by store code that already
	// holds the lock; their methods must not take it again.
	noLock bool

	// committedOnly hides versions of uncommitted writers; writer 0,
	// the initial load, counts as committed.
	committedOnly bool

	masked     bool
	maskWriter int
	maskSeq    int64

	// hasCeiling restricts visibility to versions with seq at most
	// ceiling, reconstructing the state as of a past read: one lock
	// orders every write, so a version at or below the read's sequence
	// existed when it read (or was since aborted) and every later one
	// is above it. hasWindow further admits versions past the ceiling
	// up to windowSeq written by writers other than the reader — "the
	// interference that landed after my read, excluding my own later
	// repairs" (used by the as-of-read-time conflict check of
	// Algorithm 4).
	hasCeiling bool
	hasWindow  bool
	ceiling    int64
	windowSeq  int64
}

// rlock takes the store's read lock unless this snapshot was minted
// under the held lock.
func (sn *Snapshot) rlock() {
	if !sn.noLock {
		sn.store.rlock()
	}
}

func (sn *Snapshot) runlock() {
	if !sn.noLock {
		sn.store.runlock()
	}
}

// Reader returns the snapshot's reader priority.
func (sn *Snapshot) Reader() int { return sn.reader }

// CurrentSeq returns the sequence high-water mark of the live store the
// snapshot was taken from, whatever the snapshot's filters. A stored
// read records it as its read sequence.
func (sn *Snapshot) CurrentSeq() int64 { return sn.store.CurrentSeq() }

// SetMask hides the version (writer, seq) from sn. Used to answer
// "what would this query return had that write not happened?". The
// Set* narrowings modify sn in place, so a conflict checker derives
// each check's view into one reused value; a caller that must keep the
// wider view narrows a copy of the Snapshot value.
func (sn *Snapshot) SetMask(writer int, seq int64) {
	sn.masked, sn.maskWriter, sn.maskSeq = true, writer, seq
}

// SetCeiling restricts sn to versions with sequence numbers at most
// seq: the state a read that recorded CurrentSeq() == seq observed.
func (sn *Snapshot) SetCeiling(seq int64) {
	sn.hasCeiling, sn.ceiling = true, seq
}

// SetWindow narrows sn to the state as of the ceiling, augmented with
// the writes other writers performed past it up to sequence upto — the
// reader's own post-ceiling writes stay hidden.
func (sn *Snapshot) SetWindow(ceiling, upto int64) {
	sn.hasCeiling, sn.ceiling = true, ceiling
	sn.hasWindow, sn.windowSeq = true, upto
}

// admits reports whether a version is visible under all of the
// snapshot's filters.
func (sn *Snapshot) admits(v *version) bool {
	if v.writer > sn.reader {
		return false
	}
	if sn.masked && v.writer == sn.maskWriter && v.seq == sn.maskSeq {
		return false
	}
	if sn.committedOnly && !sn.store.isCommitted(v.writer) {
		return false
	}
	if sn.hasCeiling && v.seq > sn.ceiling {
		if !sn.hasWindow {
			return false
		}
		if v.seq > sn.windowSeq || v.writer == sn.reader {
			return false
		}
	}
	return true
}

// versionOf returns the visible version in the chain vs, or nil.
// Callers hold the lock.
func (sn *Snapshot) versionOf(vs []version) *version {
	for i := len(vs) - 1; i >= 0; i-- {
		v := &vs[i]
		if sn.admits(v) {
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
	sn.rlock()
	defer sn.runlock()
	return sn.getInStripe(s, id)
}

func (sn *Snapshot) getInStripe(s *stripe, id TupleID) ([]model.Value, bool) {
	p, ok := s.find(id)
	if !ok {
		return nil, false
	}
	return sn.visibleAt(s, p)
}

// visibleAt returns the values of the member at position p visible to
// this snapshot, or ok == false when none is or it is a tombstone.
func (sn *Snapshot) visibleAt(s *stripe, p pos) ([]model.Value, bool) {
	v := sn.versionOf(s.chain(p))
	if v == nil || v.vals == nil {
		return nil, false
	}
	return s.valsOf(v), true
}

// GetTuple is Get returning a model.Tuple.
func (sn *Snapshot) GetTuple(id TupleID) (model.Tuple, bool) {
	s := sn.store.stripeOf(id)
	if s == nil {
		return model.Tuple{}, false
	}
	sn.rlock()
	defer sn.runlock()
	vals, ok := sn.getInStripe(s, id)
	if !ok {
		return model.Tuple{}, false
	}
	return model.Tuple{Rel: s.rel, Vals: vals}, true
}

// Row is a visible tuple as a probe returns it: its ID and its values,
// the version's own immutable array, which callers must not modify.
type Row struct {
	ID   TupleID
	Vals []model.Value
}

// ProbeRows appends to dst, in ascending ID order, the visible tuples of
// rel whose column col holds v — every visible tuple when col < 0 —
// that keep takes, and returns dst with the number of candidates the
// probe examined: of the members the column's index lists under v's
// key, the null index lists for a labeled null v, or of all the
// relation's members for a scan, those up to and including the one
// where keep stopped, visible or not. keep reports
// whether to take a row and whether the probe stops there; a nil keep
// takes every row. One read lock covers the whole probe and keep runs
// under it, so keep must not call back into the store: a join
// step passes its match, and only rows that can match are copied.
func (sn *Snapshot) ProbeRows(rel string, col int, v model.Value, dst []Row, keep func(vals []model.Value) (take, stop bool)) ([]Row, int) {
	s := sn.store.stripes[rel]
	if s == nil || col >= len(s.valIdx) {
		return dst, 0
	}
	sn.rlock()
	defer sn.runlock()
	if col < 0 {
		n, stop := 0, false
		for p, id := range s.members() {
			n++
			if vals, ok := sn.visibleAt(s, p); ok {
				if dst, stop = probeRow(dst, id, vals, keep); stop {
					return dst, n
				}
			}
		}
		return dst, n
	}
	n := 0
	if v.IsNull() {
		var c postCursor[uint64]
		sn.store.nullRun(&c, s, v)
		for id, ok := c.next(); ok; id, ok = c.next() {
			if n++; sn.probeCand(&dst, s, id, col, v, keep) {
				return dst, n
			}
		}
		return dst, n
	}
	var c postCursor[uint32]
	c.run(&s.valIdx[col], sn.store.key(v.Hash()))
	for id, ok := c.next(); ok; id, ok = c.next() {
		if n++; sn.probeCand(&dst, s, id, col, v, keep) {
			return dst, n
		}
	}
	return dst, n
}

// probeCand appends candidate id of s to *dst when it is visible, holds
// v in column col and keep takes it, and reports whether keep stops the
// probe.
func (sn *Snapshot) probeCand(dst *[]Row, s *stripe, id TupleID, col int, v model.Value, keep func([]model.Value) (take, stop bool)) (stop bool) {
	if vals, ok := sn.getInStripe(s, id); ok && vals[col] == v {
		*dst, stop = probeRow(*dst, id, vals, keep)
	}
	return stop
}

// probeRow appends the row (id, vals) to dst when keep takes it, and
// reports whether keep stops the probe.
func probeRow(dst []Row, id TupleID, vals []model.Value, keep func([]model.Value) (take, stop bool)) ([]Row, bool) {
	take, stop := true, false
	if keep != nil {
		take, stop = keep(vals)
	}
	if take {
		dst = append(dst, Row{id, vals})
	}
	return dst, stop
}

// ScanRel calls fn for every visible tuple of the relation in tuple-ID
// order; fn returning false stops the scan. The read lock is held
// across the whole scan, so fn must not call back into the store.
func (sn *Snapshot) ScanRel(rel string, fn func(id TupleID, vals []model.Value) bool) {
	s := sn.store.stripes[rel]
	if s == nil {
		return
	}
	sn.rlock()
	defer sn.runlock()
	sn.scanStripe(s, fn)
}

func (sn *Snapshot) scanStripe(s *stripe, fn func(id TupleID, vals []model.Value) bool) {
	for p, id := range s.members() {
		if vals, ok := sn.visibleAt(s, p); ok {
			if !fn(id, vals) {
				return
			}
		}
	}
}

// RelStats summarizes a relation for the query planner: a row count
// plus, per column, the distinct-value fanout. Live / Distinct[c]
// estimates the candidate list an equality probe on column c returns.
type RelStats struct {
	// Live is the stripe's tuple count: every tuple it holds, whatever
	// its visibility.
	Live int
	// Distinct[c] is the number of keys in column c's index, which is
	// the number of distinct constants unless two share a key; labeled
	// nulls are listed in the null index and not counted. nil for empty
	// or zero-arity relations.
	Distinct []int
}

// RelStatsInto writes cardinality statistics for the relation into st,
// counted off its live stripe and value index under the read lock; a
// plan asks once per join order it computes. The numbers
// describe what the stripe holds, not the snapshot's visibility — they
// feed ordering heuristics, never correctness. It reuses the array of
// st.Distinct, so a caller that keeps st computes statistics without
// allocating once the array is large enough.
func (sn *Snapshot) RelStatsInto(rel string, st *RelStats) {
	*st = RelStats{Distinct: st.Distinct[:0]}
	s := sn.store.stripes[rel]
	if s == nil {
		return
	}
	sn.rlock()
	defer sn.runlock()
	st.Live = s.count
	if st.Live > 0 {
		st.Distinct = slices.Grow(st.Distinct, len(s.valIdx))
		for c := range s.valIdx {
			st.Distinct = append(st.Distinct, s.valIdx[c].keys)
		}
	}
}

// appendNullIDs appends to dst the null index's members for x: a copy,
// as writers change the index's pages in place. Callers hold the lock.
func (st *Store) appendNullIDs(dst []TupleID, x model.Value) []TupleID {
	return st.nullIdx.appendMembers(dst, x.Hash())
}

// nullRun places c at the members of s the null index lists for x: one
// sub-run of x's run, found by a seek to (x's Hash, the stripe's base),
// as the stripe's IDs share its base bits. Callers hold the lock.
func (st *Store) nullRun(c *postCursor[uint64], s *stripe, x model.Value) {
	c.seek(&st.nullIdx, x.Hash(), uint64(s.base()), uint64(s.base()+1<<localIDBits))
}

// TuplesWithNull returns, in ascending order, the IDs of visible
// tuples containing the labeled null x. ReplaceNull calls it through a
// snapshot minted under the write lock.
func (sn *Snapshot) TuplesWithNull(x model.Value) []TupleID {
	sn.rlock()
	defer sn.runlock()
	ids := sn.store.appendNullIDs(nil, x)
	out := ids[:0] // filtered in place
	for _, id := range ids {
		s := sn.store.stripeOf(id)
		if s == nil {
			continue
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
	return out
}

// MoreSpecificInto appends to dst the visible tuples of t's relation
// that are more specific than t (Definition 2.4), excluding exact
// duplicates of t, in ascending ID order, and returns dst. This is the
// correction query the forward chase asks for each generated tuple
// (§4.2); a caller that reuses dst asks it without allocating.
//
// Candidate narrowing uses the most selective constant position of t;
// if t has no constants the relation is scanned.
func (sn *Snapshot) MoreSpecificInto(t model.Tuple, dst []TupleID) []TupleID {
	sn.walkMoreSpecific(t, func(id TupleID) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// AnyMoreSpecific reports whether MoreSpecificInto finds a tuple: the
// same walk, stopped at the first hit.
func (sn *Snapshot) AnyMoreSpecific(t model.Tuple) bool {
	found := false
	sn.walkMoreSpecific(t, func(TupleID) bool {
		found = true
		return false
	})
	return found
}

// walkMoreSpecific calls fn, in ascending ID order, for every tuple
// MoreSpecificInto(t) appends, until fn returns false.
func (sn *Snapshot) walkMoreSpecific(t model.Tuple, fn func(TupleID) bool) {
	s := sn.store.stripes[t.Rel]
	if s == nil {
		return
	}
	sn.rlock()
	defer sn.runlock()
	bestCol := -1
	bestSize := -1
	for i, v := range t.Vals {
		if !v.IsConst() {
			continue
		}
		size := s.valIdx[i].count(sn.store.key(v.Hash()))
		if bestCol == -1 || size < bestSize {
			bestCol, bestSize = i, size
		}
	}
	check := func(id TupleID, vals []model.Value) bool {
		if model.MoreSpecificVals(vals, t.Vals) && !(model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			return fn(id)
		}
		return true
	}
	if bestCol >= 0 {
		var c postCursor[uint32]
		c.run(&s.valIdx[bestCol], sn.store.key(t.Vals[bestCol].Hash()))
		for id, ok := c.next(); ok; id, ok = c.next() {
			if vals, ok := sn.getInStripe(s, id); ok && !check(id, vals) {
				return
			}
		}
		return
	}
	sn.scanStripe(s, check)
}

// VisibleFacts returns the distinct visible tuple contents of every
// relation, as canonical sets keyed by relation name. The
// serializability checker compares these across executions.
func (sn *Snapshot) VisibleFacts() map[string][]model.Tuple {
	sn.rlock()
	defer sn.runlock()
	out := make(map[string][]model.Tuple)
	for _, rel := range sn.store.relsByIdx {
		s := sn.store.stripes[rel]
		seen := make(map[string]bool)
		var ts []model.Tuple
		sn.scanStripe(s, func(id TupleID, vals []model.Value) bool {
			t := model.Tuple{Rel: rel, Vals: append([]model.Value(nil), vals...)}
			if k := t.Key(); !seen[k] {
				seen[k] = true
				ts = append(ts, t)
			}
			return true
		})
		if len(ts) > 0 {
			out[rel] = ts
		}
	}
	return out
}
