package cc

import (
	"fmt"
	"sort"

	"youtopia/internal/chase"
	"youtopia/internal/query"
	"youtopia/internal/storage"
)

// This file holds the Algorithm-4 conflict processing shared by the
// cooperative Scheduler and the goroutine-parallel ParallelScheduler.
// Keeping the conflict detection, cascade closure and rollback in one
// place, beside the transaction core of txncore.go, is what makes the
// two schedulers' semantics provably identical — the
// parallel-vs-serial equivalence tests lean on that.
//
// Detection is split into three phases so the parallel scheduler can
// run the expensive part outside its exclusive phase lock:
//
//  1. snapshotCandidatesInto freezes, at write time, each potential
//     victim's published read-prefix record — an immutable
//     (attempt, epoch, reads) pointer the update republishes at the end
//     of every engine call that stored reads — into a reusable scratch
//     slice; in steady state the collection performs zero heap
//     allocations (no per-candidate locking, no slice copies);
//  2. directConflicts runs the AffectedBy checks of Algorithm 4 over
//     those frozen candidates — safe under a shared lock, because the
//     records are immutable and a bumped attempt counter marks a
//     candidate whose reads no longer predate the writes;
//  3. cascadeClosure closes the abort set transitively through the
//     tracker and orders it — cheap, and run under the exclusive lock
//     where other updates' dependency sets are stable.
//
// The cooperative scheduler calls all three back to back from its
// single goroutine, which reproduces the original atomic semantics.

// conflictCandidate freezes one potential victim of a write batch: the
// txn and the published read-prefix record that existed when the
// writes landed. Reads recorded later were evaluated on a store that
// already contained the writes, so they can only be dependencies (the
// tracker's concern), never retroactive conflicts. Later phases
// revalidate a frozen record by comparing its Attempt — the restart
// counter — against the live one, the same compare-a-counter shape as
// the per-stripe sequence validation: a mismatch means the victim
// restarted and its frozen reads no longer exist. (The finer Epoch
// field versions individual publications; appends within one attempt
// bump it without invalidating earlier prefixes, so revalidation
// deliberately does not compare it.)
type conflictCandidate struct {
	t      *Txn
	prefix *chase.ReadPrefix
}

// snapshotCandidatesInto appends every uncommitted txn numbered above
// the writer that has published reads to dst (normally a scratch
// buffer reset to length zero by the caller) and returns the extended
// slice. The parallel scheduler calls it under the exclusive phase
// lock, immediately after performing the writes; with a warm scratch
// the collection allocates nothing.
func snapshotCandidatesInto(dst []conflictCandidate, txns []*Txn, writer int) []conflictCandidate {
	for _, t := range txns {
		if t.Number <= writer || t.committed {
			continue
		}
		p := t.Upd.PublishedReads()
		if len(p.Reads) == 0 {
			continue
		}
		dst = append(dst, conflictCandidate{t: t, prefix: p})
	}
	return dst
}

// directConflicts checks one batch of writes against the candidates'
// frozen read prefixes on the calling goroutine's checker and returns
// the directly affected candidates in candidate order (Algorithm 4's
// detection phase), attempts preserved so a later exclusive phase can
// revalidate them. Counters accumulate into m; in ModeFlag conflicts
// are only counted and nothing is returned. Candidates whose attempt
// counter moved on since the snapshot are skipped — their restarted
// reads postdate the writes.
func directConflicts(store storage.Backend, cfg *Config, chk *query.Checker, cands []conflictCandidate, writes []storage.WriteRec, m *Metrics) []conflictCandidate {
	if len(writes) == 0 {
		return nil
	}
	var marked []conflictCandidate
	for _, c := range cands {
		if c.t.Upd.Attempt != c.prefix.Attempt || c.t.committed {
			continue
		}
		hit := false
	scan:
		for _, w := range writes {
			for _, q := range c.prefix.Reads {
				if q.AffectedBy(chk, store, w) {
					m.DirectAbortRequests++
					obsConflictDirect.Inc()
					if cfg.Mode == ModeFlag {
						m.Flagged++
						obsConflictFlagged.Inc()
						continue scan // count at most once per write
					}
					hit = true
					break scan
				}
			}
		}
		if hit {
			marked = append(marked, c)
		}
	}
	if cfg.Mode == ModeFlag {
		return nil
	}
	return marked
}

// removalCandidatesInto appends to dst (a scratch buffer reset by the
// caller), under the exclusive phase lock, the uncommitted transactions
// outside the current wave whose live attempt has published a
// violation read, each with its frozen read prefix. This one filter
// feeds both the should-we-snapshot-the-log decision and the drift
// checks themselves, so the two can never drift apart. Empty in
// ModeFlag (nothing aborts there). Only violation queries matter:
// structural queries are covered by their state-independent
// write-side checks and the dependencies the trackers record.
func removalCandidatesInto(dst []conflictCandidate, cfg *Config, txns []*Txn, marked map[int]bool) []conflictCandidate {
	if cfg.Mode == ModeFlag {
		return dst
	}
	for _, t := range txns {
		if t.committed || marked[t.Number] {
			continue
		}
		p := t.Upd.PublishedReads()
		if t.Upd.Attempt != p.Attempt {
			continue
		}
		for _, q := range p.Reads {
			if _, ok := q.(*query.ViolationRead); ok {
				dst = append(dst, conflictCandidate{t: t, prefix: p})
				break
			}
		}
	}
	return dst
}

// abortConflicts is the abort-side half of conflict detection: after a
// writer's rollback removed its writes, every candidate's violation
// reads are re-checked for drift (ViolationRead.AffectedByRemoval) on
// the calling goroutine's checker. A removal can flip verdicts that
// write-side checks delivered honestly — the check of a write
// evaluates the interference that existed at that moment, and an abort
// takes part of it back without any later write re-asking the question
// — so the removal itself must be processed as a conflict event.
// Callers hold the exclusive phase lock; victims marked since the
// candidates were collected are filtered by the wave's enqueue.
func abortConflicts(store storage.Backend, chk *query.Checker, cands []conflictCandidate, removed []storage.WriteRec, m *Metrics) []*Txn {
	if len(removed) == 0 {
		return nil
	}
	var out []*Txn
	for _, c := range cands {
		for _, q := range c.prefix.Reads {
			if vq, ok := q.(*query.ViolationRead); ok && vq.AffectedByRemoval(chk, store, removed) {
				m.RemovalAbortRequests++
				obsConflictRemoval.Inc()
				out = append(out, c.t)
				break
			}
		}
	}
	return out
}

// executeAbortWave executes a consolidated abort wave: the direct
// victims, their transitive read-dependency cascade (the tracker), and
// the victims of abort-side drift checks — each rollback's removed
// writes are checked against the remaining prefixes via
// abortConflicts, and newly marked txns join the wave. Victims are
// rolled back in ascending priority order (the queue is kept sorted),
// so executions are deterministic given the same wave. The rollback
// callback performs the actual rollback plus any scheduler-specific
// bookkeeping; callers hold the exclusive phase lock, where dependency
// sets and read prefixes are stable between rollbacks. The drift checks
// run on sc's checker and collect into sc's candidate buffer.
func executeAbortWave(store storage.Backend, cfg *Config, txns []*Txn, direct []*Txn, m *Metrics, sc *stepScratch, rollback func(*Txn) error) error {
	if len(direct) == 0 {
		return nil
	}
	marked := make(map[int]bool, len(direct))
	var queue []int
	enqueue := func(t *Txn) {
		if t.committed || t.cancelled || marked[t.Number] {
			return
		}
		marked[t.Number] = true
		i := sort.SearchInts(queue, t.Number)
		queue = append(queue, 0)
		copy(queue[i+1:], queue[i:])
		queue[i] = t.Number
	}
	for _, t := range direct {
		enqueue(t)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n < 1 || n > len(txns) {
			continue
		}
		t := txns[n-1]
		// One level of dependency cascade; transitivity comes from the
		// wave (cascaded victims enqueue and cascade in turn).
		for _, v := range cfg.Tracker.Cascade(store, t, txns) {
			m.CascadingAbortRequests++
			obsConflictCascading.Inc()
			enqueue(v)
		}
		// The victim's log is only worth snapshotting (a store-wide
		// read-lock round) when some surviving prefix could act on it.
		sc.removal = removalCandidatesInto(sc.removal[:0], cfg, txns, marked)
		var removed []storage.WriteRec
		if len(sc.removal) > 0 {
			removed = store.WritesOf(n)
		}
		if err := rollback(t); err != nil {
			return err
		}
		for _, v := range abortConflicts(store, &sc.chk, sc.removal, removed, m) {
			enqueue(v)
		}
	}
	return nil
}

// stepScratch holds the reusable state of one conflict-processing
// pipeline: the candidate collection, the redo collection of the
// exclusive revalidation phase, the written-relation sequence
// snapshot, the abort wave's drift candidates, the trackers' write-log
// scan buffer, and the checker every conflict check of the goroutine
// runs on. Each scheduler goroutine owns one, so steady-state steps
// (no conflicts) allocate nothing on the coordination path. The
// checker is never pooled and never an update attempt's query context.
type stepScratch struct {
	cands   []conflictCandidate
	redo    []conflictCandidate
	rels    []relSeq
	removal []conflictCandidate
	log     []storage.WriteRec
	chk     query.Checker
}

// relSeq records one written relation's stripe sequence number at
// write time; a later mismatch proves another writer has since landed
// in the stripe.
type relSeq struct {
	rel string
	seq int64
}

// writtenRelSeqsInto records, for each relation a write batch touched,
// the stripe sequence number after the batch landed, appending into
// dst (a scratch buffer reset by the caller). Callers hold the
// exclusive phase lock, so these are exactly the writer's own seqs.
func writtenRelSeqsInto(dst []relSeq, store storage.Backend, writes []storage.WriteRec) []relSeq {
	for _, w := range writes {
		seen := false
		for i := range dst {
			if dst[i].rel == w.Rel {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, relSeq{rel: w.Rel, seq: store.RelSeq(w.Rel)})
		}
	}
	return dst
}

// collectDirect is the single-threaded composition of the detection
// phases: it checks one batch of writes against the stored read
// queries of higher-numbered uncommitted updates and returns the
// directly affected victims (Algorithm 4's detection half). The
// cooperative scheduler calls it from its one goroutine, reusing its
// scratch across steps, and hands the victims to executeAbortWave for
// the cascade and the rollbacks.
func collectDirect(store storage.Backend, cfg *Config, txns []*Txn, writes []storage.WriteRec, m *Metrics, scratch *stepScratch) []*Txn {
	if len(writes) == 0 {
		return nil
	}
	scratch.cands = snapshotCandidatesInto(scratch.cands[:0], txns, writes[0].Writer)
	direct := directConflicts(store, cfg, &scratch.chk, scratch.cands, writes, m)
	if len(direct) == 0 {
		return nil
	}
	victims := make([]*Txn, len(direct))
	for i, c := range direct {
		victims[i] = c.t
	}
	return victims
}

// rollbackTxn aborts one update at the storage level and requeues it
// with the same priority number for a fresh attempt, enforcing the
// abort limit. Aborts and FrontierRequests accumulate into m (the §6
// metric charges an attempt's frontier requests when it dies or
// commits). The parallel scheduler calls it under the exclusive phase
// lock; bumping the attempt counter there is what tells a concurrent
// claimant to abandon its stale phase.
func rollbackTxn(store storage.Backend, cfg *Config, t *Txn, m *Metrics) error {
	if t.committed {
		return fmt.Errorf("cc: attempt to abort committed update %d", t.Number)
	}
	m.Aborts++
	obsAborts.Inc()
	if cfg.Trace.Enabled() {
		cfg.Trace.NoteDetail(t.Number, "abort", fmt.Sprintf("attempt=%d", t.Upd.Attempt))
	}
	t.aborts++
	if cfg.MaxAbortsPerUpdate > 0 && t.aborts > cfg.MaxAbortsPerUpdate {
		return fmt.Errorf("cc: update %d aborted %d times (limit %d)",
			t.Number, t.aborts, cfg.MaxAbortsPerUpdate)
	}
	m.FrontierRequests += t.Upd.Stats.FrontierRequests
	store.Abort(t.Number)
	clear(t.deps)
	t.Upd.Reset()
	return nil
}
