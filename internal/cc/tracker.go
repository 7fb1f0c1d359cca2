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
// update numbered above i is assumed to have read from it. A txn in the
// window that has not stepped yet has read nothing and is left alone.
type Naive struct{}

// Name implements Tracker.
func (Naive) Name() string { return "NAIVE" }

// OnRead implements Tracker: NAIVE records nothing.
func (Naive) OnRead(storage.Backend, *Txn, query.ReadQuery) {}

// Cascade implements Tracker.
func (Naive) Cascade(_ storage.Backend, aborted *Txn, live []*Txn) []*Txn {
	var out []*Txn
	for _, t := range above(live, aborted.Number) {
		if t.Upd != nil {
			out = append(out, t)
		}
	}
	return out
}

// Coarse is the cheaper dependency tracker of §5.1.1: for violation
// queries it does not consult the database — any uncommitted
// lower-numbered update that has written into one of the query's
// relations is conservatively assumed to influence the answer.
// Correction (and content) queries are resolved exactly against the
// in-memory write log, which needs no database access.
type Coarse struct{}

// Name implements Tracker.
func (Coarse) Name() string { return "COARSE" }

// OnRead implements Tracker. A violation query depends on every
// uncommitted writer into its relations; a correction or content query
// on exactly the writers whose writes change its answer.
func (Coarse) OnRead(st storage.Backend, u *Txn, q query.ReadQuery) {
	sc := u.sc
	sc.log = appendRelevant(sc.log[:0], st, q)
	violation := q.Kind() == query.KindViolation
	for _, w := range sc.log {
		if violation || (w.Writer != u.Number && q.AffectedBy(&sc.chk, st, w)) {
			u.addDep(w.Writer)
		}
	}
}

// appendRelevant appends to dst, through the one write-log scan, the
// uncommitted writes a read query's AffectedBy could possibly match:
// writes into the query's relation (content, more-specific) or its
// mapping's relations (violation), or every write for the
// relation-less null-occurrence query. Order is irrelevant — the
// trackers derive a dependency set.
func appendRelevant(dst []storage.WriteRec, st storage.Backend, q query.ReadQuery) []storage.WriteRec {
	switch r := q.(type) {
	case *query.ContentRead:
		return st.AppendUncommittedWrites(dst, r.Rel)
	case *query.MoreSpecificRead:
		return st.AppendUncommittedWrites(dst, r.Rel)
	}
	rels := q.Relations()
	if rels == nil {
		return st.AppendUncommittedWrites(dst, "")
	}
	for _, rel := range rels {
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

// OnRead implements Tracker. Violation queries are checked on the
// stepping goroutine's checker.
func (Precise) OnRead(st storage.Backend, u *Txn, q query.ReadQuery) {
	sc := u.sc
	sc.log = appendRelevant(sc.log[:0], st, q)
	for _, w := range sc.log {
		if w.Writer == u.Number {
			continue
		}
		if u.deps[w.Writer] {
			continue // already dependent; skip the expensive check
		}
		if q.AffectedBy(&sc.chk, st, w) {
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
		if t.deps[aborted.Number] {
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
