package cc

import (
	"fmt"
	"slices"
	"sort"

	"youtopia/internal/query"
	"youtopia/internal/storage"
)

// This file holds Algorithm 4's conflict processing: detection of the
// readers a write batch affects, the cascade, the rollbacks and the
// abort-side drift checks. The scheduler runs it right after the step
// that performed the writes, on the goroutine that called Run, so
// every candidate's read log is complete (Scheduler.processWrites).
// Every walk covers only the live window, or a part of it
// (Scheduler.window says why that misses no victim); live stands for such
// a window below, a run of consecutively numbered txns.

// above returns the txns of a live window numbered above the writer.
func above(live []*Txn, writer int) []*Txn {
	if len(live) == 0 {
		return nil
	}
	return live[min(max(writer-live[0].Number+1, 0), len(live)):]
}

// candidatesInto appends to dst (a scratch buffer reset by the caller)
// the txns of a window slice that have stored reads, and returns the
// extended slice; with a warm scratch it allocates nothing.
func candidatesInto(dst []*Txn, live []*Txn) []*Txn {
	for _, t := range live {
		if len(t.Upd.StoredReads()) > 0 {
			dst = append(dst, t)
		}
	}
	return dst
}

// directConflicts checks one batch of writes against the candidates'
// stored reads on the given checker and returns the
// directly affected candidates in candidate order (Algorithm 4's
// detection). Counters accumulate into m; in ModeFlag conflicts are
// only counted and nothing is returned.
func directConflicts(store storage.Backend, cfg *Config, chk *query.Checker, cands []*Txn, writes []storage.WriteRec, m *Metrics) []*Txn {
	var marked []*Txn
	for _, t := range cands {
		hit := false
	scan:
		for _, w := range writes {
			for _, q := range t.Upd.StoredReads() {
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
			marked = append(marked, t)
		}
	}
	return marked
}

// removalCandidatesInto appends to dst (a scratch buffer reset by the
// caller) the live transactions outside the current wave that have
// stored a violation read. This one filter feeds both the
// should-we-snapshot-the-log decision and the drift checks themselves,
// so the two can never drift apart. Empty in ModeFlag (nothing aborts
// there). Only violation queries matter:
// structural queries are covered by their state-independent
// write-side checks and the dependencies the trackers record.
func removalCandidatesInto(dst []*Txn, cfg *Config, live []*Txn, marked map[int]bool) []*Txn {
	if cfg.Mode == ModeFlag {
		return dst
	}
	for _, t := range live {
		if marked[t.Number] {
			continue
		}
		for _, q := range t.Upd.StoredReads() {
			if _, ok := q.(*query.ViolationRead); ok {
				dst = append(dst, t)
				break
			}
		}
	}
	return dst
}

// abortConflicts is the abort-side half of conflict detection: after a
// writer's rollback removed its writes, every candidate's violation
// reads are re-checked for drift (ViolationRead.AffectedByRemoval) on
// the given checker. A removal can flip verdicts that
// write-side checks delivered honestly — the check of a write
// evaluates the interference that existed at that moment, and an abort
// takes part of it back without any later write re-asking the question
// — so the removal itself must be processed as a conflict event.
// Victims marked since the candidates were collected are filtered by
// the wave's enqueue.
func abortConflicts(store storage.Backend, chk *query.Checker, cands []*Txn, removed []storage.WriteRec, m *Metrics) []*Txn {
	if len(removed) == 0 {
		return nil
	}
	var out []*Txn
	for _, t := range cands {
		for _, q := range t.Upd.StoredReads() {
			if vq, ok := q.(*query.ViolationRead); ok && vq.AffectedByRemoval(chk, store, removed) {
				m.RemovalAbortRequests++
				obsConflictRemoval.Inc()
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// executeAbortWave executes a consolidated abort wave: the direct
// victims, their transitive read-dependency cascade (the tracker), and
// the victims of abort-side drift checks — each rollback's removed
// writes are checked against the remaining read logs via
// abortConflicts, and newly marked txns join the wave. Victims are
// rolled back in ascending priority order (the queue is kept sorted),
// so executions are deterministic given the same wave. The rollback
// callback performs the actual rollback plus the scheduler's inbox
// bookkeeping; no step runs during the wave, so dependency sets and
// read logs are stable between rollbacks. The drift checks
// run on sc's checker and collect into sc's candidate buffer; the
// cascade and the drift checks walk the live window.
func executeAbortWave(store storage.Backend, cfg *Config, live []*Txn, direct []*Txn, m *Metrics, sc *stepScratch, rollback func(*Txn) error) error {
	if len(direct) == 0 {
		return nil
	}
	marked := make(map[int]bool, len(direct))
	var queue []*Txn
	enqueue := func(t *Txn) {
		if t.committed || t.cancelled || marked[t.Number] {
			return
		}
		marked[t.Number] = true
		i := sort.Search(len(queue), func(i int) bool { return queue[i].Number > t.Number })
		queue = slices.Insert(queue, i, t)
	}
	for _, t := range direct {
		enqueue(t)
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		// One level of dependency cascade; transitivity comes from the
		// wave (cascaded victims enqueue and cascade in turn).
		for _, v := range cfg.Tracker.Cascade(store, t, live) {
			m.CascadingAbortRequests++
			obsConflictCascading.Inc()
			enqueue(v)
		}
		// The victim's log is only worth snapshotting (a store-wide
		// read-lock round) when some surviving read log could act on it.
		sc.removal = removalCandidatesInto(sc.removal[:0], cfg, live, marked)
		sc.removed = sc.removed[:0]
		if len(sc.removal) > 0 {
			sc.removed = store.AppendWritesOf(sc.removed, t.Number)
		}
		if err := rollback(t); err != nil {
			return err
		}
		victims := abortConflicts(store, &sc.chk, sc.removal, sc.removed, m)
		clear(sc.removed)
		for _, v := range victims {
			enqueue(v)
		}
	}
	return nil
}

// stepScratch holds the reusable state of one conflict-processing
// pipeline: the direct and drift candidate collections, an abort
// victim's removed writes, the trackers' write-log and writer scan
// buffers, the structural matcher, and the checker every conflict
// check runs on. The scheduler owns one, so steady-state steps (no
// conflicts) allocate nothing on the coordination path. The checker is never
// pooled and never an update attempt's query context.
type stepScratch struct {
	cands   []*Txn
	removal []*Txn
	removed []storage.WriteRec
	log     []storage.WriteRec
	writers []int
	chk     query.Checker

	// match is structuralWriters' matcher, built at its first use: it
	// accepts a write of a writer other than matchReader that changes
	// matchQ's answer, both set for the duration of one scan.
	match       func(*storage.WriteRec) bool
	matchQ      query.ReadQuery
	matchReader int
}

// collectDirect checks one batch of writes against the stored read
// queries of the live updates numbered above the writer and returns the
// directly affected victims (Algorithm 4's detection half), collecting
// the candidates into the scratch.
func collectDirect(store storage.Backend, cfg *Config, live []*Txn, writes []storage.WriteRec, m *Metrics, scratch *stepScratch) []*Txn {
	if len(writes) == 0 {
		return nil
	}
	scratch.cands = candidatesInto(scratch.cands[:0], above(live, writes[0].Writer))
	return directConflicts(store, cfg, &scratch.chk, scratch.cands, writes, m)
}

// rollbackTxn aborts one update at the storage level and requeues it
// with the same priority number for a fresh attempt, enforcing the
// abort limit. Aborts and FrontierRequests accumulate into m (the §6
// metric charges an attempt's frontier requests when it dies or
// commits).
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
	t.deps = t.deps[:0]
	t.Upd.Reset()
	return nil
}
