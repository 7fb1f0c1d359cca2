// Package cc implements Youtopia's optimistic concurrency control
// (§4–§5 of the paper): the chase scheduler of Algorithm 3, the
// optimistic conflict-detection template of Algorithm 4 built on tuple
// versioning and stored read queries, and the three cascading-abort
// algorithms of §5.1 — NAIVE, COARSE and PRECISE.
//
// Updates carry priority numbers (lower number = higher priority,
// §3); the store's multiversioning makes writes of higher-numbered
// updates invisible to lower-numbered readers, and every write is
// checked against the stored read queries of higher-numbered (lower
// priority) updates. A retroactively changed answer aborts the reader;
// read dependencies determine who cascades.
package cc

import (
	"fmt"
	"slices"

	"youtopia/internal/query"
	"youtopia/internal/storage"
)

// Tracker determines read dependencies and cascade sets — the part of
// Algorithm 4 that §5.1 varies across NAIVE, COARSE and PRECISE.
type Tracker interface {
	// Name identifies the tracker in reports ("NAIVE", ...).
	Name() string
	// OnRead is invoked when txn u performs read query q; the tracker
	// records u's dependencies on uncommitted lower-numbered writers.
	OnRead(st storage.Backend, u *Txn, q query.ReadQuery)
	// Cascade returns, among the live window, the txns that must abort
	// because they (transitively directly) read from the aborted txn.
	// The scheduler computes the transitive closure; Cascade returns
	// one level.
	Cascade(st storage.Backend, aborted *Txn, live []*Txn) []*Txn
}

// Naive is the strawman of §5.1: when update i aborts, every live
// update numbered above i is assumed to have read from it.
type Naive struct{}

// Name implements Tracker.
func (Naive) Name() string { return "NAIVE" }

// OnRead implements Tracker: NAIVE records nothing.
func (Naive) OnRead(storage.Backend, *Txn, query.ReadQuery) {}

// Cascade implements Tracker.
func (Naive) Cascade(_ storage.Backend, aborted *Txn, live []*Txn) []*Txn {
	return slices.Clone(above(live, aborted.Number))
}

// Coarse is the cheaper dependency tracker of §5.1.1: for violation
// queries it does not consult the database — any uncommitted
// lower-numbered update that has written into one of the query's
// relations is conservatively assumed to influence the answer.
// Correction (and content) queries are resolved exactly against the
// in-memory write log, which needs no database access. Either way the
// dependencies come from a scan of the log's writers
// (Backend.AppendUncommittedWriters); no write record is copied.
type Coarse struct{}

// Name implements Tracker.
func (Coarse) Name() string { return "COARSE" }

// OnRead implements Tracker. A violation query depends on every
// uncommitted writer into its relations; a correction or content query
// on exactly the writers whose writes change its answer.
func (Coarse) OnRead(st storage.Backend, u *Txn, q query.ReadQuery) {
	sc := u.sc
	sc.writers = sc.coarseWriters(sc.writers[:0], st, u.Number, q)
	for _, w := range sc.writers {
		u.addDep(w)
	}
}

// coarseWriters appends to dst the writers COARSE charges a read of
// reader with: every uncommitted writer into a violation query's
// relations, or for a structural query (content, more-specific,
// null-occurrence) the writers structuralWriters finds. Writers may
// repeat, and the reader itself or higher-numbered writers may appear
// for a violation query: Txn.addDep drops those.
func (sc *stepScratch) coarseWriters(dst []int, st storage.Backend, reader int, q query.ReadQuery) []int {
	vq, ok := q.(*query.ViolationRead)
	if !ok {
		return sc.structuralWriters(dst, st, reader, q)
	}
	for _, rel := range vq.TGD.Relations() {
		dst = st.AppendUncommittedWriters(dst, rel, nil)
	}
	return dst
}

// structuralWriters appends to dst the uncommitted writers other than
// reader with a write that changes a structural query's answer. The
// query's AffectedBy is store-free, so it runs as the scan's matcher,
// under the store's read lock; the matcher is built once per scratch
// and reads the query being charged from the scratch.
func (sc *stepScratch) structuralWriters(dst []int, st storage.Backend, reader int, q query.ReadQuery) []int {
	rel := "" // a null-occurrence query ranges over every relation
	switch r := q.(type) {
	case *query.ContentRead:
		rel = r.Rel
	case *query.MoreSpecificRead:
		rel = r.Rel
	}
	if sc.match == nil {
		sc.match = func(w *storage.WriteRec) bool {
			return w.Writer != sc.matchReader && sc.matchQ.AffectedBy(nil, nil, *w)
		}
	}
	sc.matchQ, sc.matchReader = q, reader
	dst = st.AppendUncommittedWriters(dst, rel, sc.match)
	sc.matchQ = nil
	return dst
}

// appendRelevant appends to dst, through the write-log scan, the
// uncommitted writes into a violation query's relations: the writes
// PRECISE evaluates the query against. Order is irrelevant — the
// tracker derives a dependency set.
func appendRelevant(dst []storage.WriteRec, st storage.Backend, q *query.ViolationRead) []storage.WriteRec {
	for _, rel := range q.TGD.Relations() {
		dst = st.AppendUncommittedWrites(dst, rel)
	}
	return dst
}

// Cascade implements Tracker: txns whose recorded dependencies include
// the aborted update.
func (Coarse) Cascade(_ storage.Backend, aborted *Txn, live []*Txn) []*Txn {
	return depCascade(aborted, live)
}

// Precise is the exact tracker of §5.1.1: for every read query it
// determines precisely which previous writes changed the answer,
// asking (seeded, masked) queries against the database for violation
// queries. It detects only true read dependencies, at higher run-time
// cost.
type Precise struct{}

// Name implements Tracker.
func (Precise) Name() string { return "PRECISE" }

// OnRead implements Tracker. Structural queries are charged as COARSE
// charges them, which is already exact; violation queries are checked
// write by write on the scheduler's checker.
func (Precise) OnRead(st storage.Backend, u *Txn, q query.ReadQuery) {
	vq, ok := q.(*query.ViolationRead)
	if !ok {
		Coarse{}.OnRead(st, u, q)
		return
	}
	sc := u.sc
	sc.log = appendRelevant(sc.log[:0], st, vq)
	for _, w := range sc.log {
		if w.Writer == u.Number {
			continue
		}
		if u.dependsOn(w.Writer) {
			continue // already dependent; skip the expensive check
		}
		if vq.AffectedBy(&sc.chk, st, w) {
			u.addDep(w.Writer)
		}
	}
}

// Cascade implements Tracker.
func (Precise) Cascade(_ storage.Backend, aborted *Txn, live []*Txn) []*Txn {
	return depCascade(aborted, live)
}

// depCascade returns the live txns whose recorded dependencies include
// the aborted update; only a higher-numbered txn can record one.
func depCascade(aborted *Txn, live []*Txn) []*Txn {
	var out []*Txn
	for _, t := range above(live, aborted.Number) {
		if t.dependsOn(aborted.Number) {
			out = append(out, t)
		}
	}
	return out
}

// TrackerByName builds a tracker from its experiment name.
func TrackerByName(name string) (Tracker, error) {
	switch name {
	case "NAIVE", "naive":
		return Naive{}, nil
	case "COARSE", "coarse":
		return Coarse{}, nil
	case "PRECISE", "precise":
		return Precise{}, nil
	default:
		return nil, fmt.Errorf("cc: unknown tracker %q (want NAIVE, COARSE or PRECISE)", name)
	}
}
