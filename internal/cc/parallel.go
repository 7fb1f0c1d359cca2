package cc

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// ParallelScheduler drives a workload of updates to termination on N
// worker goroutines — the goroutine-level realization of the paper's
// logically concurrent scheduler (Algorithms 3 and 4). Workers pull
// runnable transactions and execute chase steps through the two-phase
// engine API, synchronized by a single phase lock:
//
//   - The write half of a step (performing the planned writes) runs
//     under the exclusive phase lock, together with a cheap snapshot
//     of the conflict-check candidates: every higher-numbered
//     uncommitted txn's attempt counter and published read prefix,
//     plus the per-stripe sequence numbers of the written relations.
//   - The expensive part of Algorithm 4's conflict processing — the
//     AffectedBy re-evaluations against those frozen read prefixes —
//     runs under the SHARED phase lock, overlapping other updates'
//     read phases. This is safe because store state never changes
//     during shared phases and the frozen prefixes are immutable.
//   - If the checks mark victims, the exclusive lock is re-acquired to
//     apply them: each verdict is revalidated (victims whose attempt
//     counter moved on restarted after the writes and are dropped),
//     and if the per-stripe sequence numbers of the written relations
//     advanced in the interim — other writers landed in the same
//     stripes between the phases — the direct check is redone under
//     the exclusive lock, restoring the original atomic semantics for
//     exactly the overlapping-relation case. Writes to relation sets
//     disjoint from all interim writers keep their shared-phase
//     verdicts. The cascade closure and the rollbacks always run under
//     the exclusive lock, where dependency sets are stable.
//   - The read half (violation discovery, queue recheck, repair
//     planning) and frontier-operation polling run under the shared
//     phase lock, so the read-dominated bulk of chase work proceeds in
//     parallel across updates.
//
// This preserves the closure of the classical OCC validation race: a
// read query is published (under the update's read lock) during a
// shared phase, so at candidate-snapshot time it either is in the
// frozen prefix (and is checked), or was performed after the writes
// landed — in which case its answer already reflects the writes and no
// retroactive conflict exists; the tracker records the dependency
// instead. Publishing once per engine call, at its end, keeps this
// intact: candidate snapshots are taken under the exclusive lock, which
// never overlaps a step half or a poll, so every read a finished call
// performed is in the frozen prefix, and every other read was performed
// after the writes. Each read phase observes the store exactly as if it
// ran between two steps of the serial interleaving, which is the
// paper's execution model; Theorem 4.4's serializability argument
// therefore carries over unchanged, and the committed final instance
// is equivalent to the serial execution of the same workload.
//
// Updates commit strictly in priority order once terminated, through
// the transaction core shared with the cooperative scheduler: one
// exclusive-lock acquisition drains the whole terminated prefix through
// a single storage group commit. Aborts decided during
// conflict processing are executed under the exclusive lock; a worker
// that had claimed the aborted transaction notices the bumped attempt
// counter at its next lock acquisition and abandons the stale phase.
type ParallelScheduler struct {
	txnCore

	// gmu is the phase lock described above. Lock order: gmu before mu.
	gmu sync.RWMutex

	// The core's mu guards the dispatch state below.
	cond           *sync.Cond
	status         []txnStatus
	claimed        []bool
	ready          readyQueue // candidate txn indexes awaiting dispatch
	inflight       int
	commitInFlight bool
	idle           int // consecutive finished work items without progress
	idleLimit      int
	err            error
	done           bool

	// Inbox-mode state (cfg.Inbox != nil), guarded by mu. A parked txn
	// (statusParked) is out of the dispatchable set entirely — no worker
	// polls it — until the box's answer hook or the policy ticker moves
	// it back to statusAwaiting.
	autoAnswer []bool // deadline auto-answer due (policy ticker)
	cancelReq  []bool // deadline abort due (policy ticker)
	parked     int    // txns currently in statusParked
	parkedIdle int    // consecutive policy ticks with only parked work
	tickStop   chan struct{}
}

// readyQueue is the dispatcher's min-heap of candidate transaction
// indexes, replacing the old all-txn scan under mu: a pop costs
// O(log n) instead of O(n) per work item. Entries are hints, not
// truth — the dispatcher re-checks status and claim on pop and drops
// stale ones — so pushing duplicates is harmless and every transition
// into a dispatchable state simply pushes. Lowest index first
// preserves the scan's priority order: finishing low-numbered updates
// unblocks the commit frontier and shrinks everyone else's abort
// window.
type readyQueue []int

func (q *readyQueue) push(i int) {
	*q = append(*q, i)
	h := *q
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
}

func (q *readyQueue) pop() (int, bool) {
	h := *q
	if len(h) == 0 {
		return 0, false
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	*q = h
	return top, true
}

// txnStatus mirrors an update's lifecycle state for the dispatcher,
// which must not touch chase.Update fields (those are synchronized by
// the phase lock, not by mu).
type txnStatus uint8

const (
	statusReady txnStatus = iota
	statusAwaiting
	statusTerminated
	// statusParked is inbox mode's blocked state: the txn waits in the
	// decision inbox and is not dispatchable (finish never requeues it);
	// the answer hook or the policy ticker transitions it back to
	// statusAwaiting, which is what bounds polls of blocked txns.
	statusParked
)

func mirrorOf(st chase.State) txnStatus {
	switch st {
	case chase.StateAwaitingUser:
		return statusAwaiting
	case chase.StateTerminated:
		return statusTerminated
	default:
		return statusReady
	}
}

// workKind classifies dispatched work items.
type workKind uint8

const (
	workStep workKind = iota
	workPoll
	workCommit
)

// NewParallelScheduler builds a parallel scheduler over a store and
// mapping set. Config.Workers selects the goroutine count; zero means
// GOMAXPROCS. The Policy field is ignored — goroutine scheduling
// replaces the cooperative interleaving policies.
func NewParallelScheduler(store storage.Backend, set *tgd.Set, cfg Config) *ParallelScheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &ParallelScheduler{}
	s.init(store, set, cfg)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// merge adds a worker's metrics delta under mu.
func (s *ParallelScheduler) merge(d Metrics) {
	if d == (Metrics{}) {
		return
	}
	s.mu.Lock()
	s.m.add(d)
	s.mu.Unlock()
}

// Run executes the workload: ops[i] becomes update number i+1. It
// blocks until every update has committed and returns the collected
// metrics; the error reports stalls (absent users), step-limit or
// abort-limit overruns, or storage failures.
func (s *ParallelScheduler) Run(ops []chase.Op) (Metrics, error) {
	s.submit(ops)
	if s.cfg.Inbox != nil {
		s.cfg.Inbox.SetOnAnswer(s.onAnswer)
		s.tickStop = make(chan struct{})
		go s.tickLoop()
	}

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerLoop()
		}()
	}
	wg.Wait()
	if s.tickStop != nil {
		close(s.tickStop)
	}
	// The workers may have finished with batch syncs still in flight;
	// end settles them.
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	return s.end(err)
}

// submit submits the workload and sets up the dispatch state, every
// txn ready.
func (s *ParallelScheduler) submit(ops []chase.Op) {
	s.begin(ops, nil)
	n := len(ops)
	s.status = make([]txnStatus, n)
	s.claimed = make([]bool, n)
	s.ready = make(readyQueue, 0, n)
	for i := range ops {
		s.ready.push(i)
	}
	s.idleLimit = s.cfg.MaxIdleRounds * max(n, 1)
	s.autoAnswer = make([]bool, n)
	s.cancelReq = make([]bool, n)
}

// workerLoop pulls and executes work items until the run completes or
// fails. Each worker owns a conflict-processing scratch — its checker
// included — so steady-state steps allocate nothing on the
// coordination path; a claimed txn's reads reach it through t.sc.
func (s *ParallelScheduler) workerLoop() {
	var scratch stepScratch
	for {
		kind, t, ok := s.next()
		if !ok {
			return
		}
		if t != nil {
			t.sc = &scratch
		}
		var progressed bool
		var err error
		switch kind {
		case workCommit:
			progressed, err = s.execCommit()
		case workStep:
			progressed, err = s.execStep(t, &scratch)
		case workPoll:
			progressed, err = s.execPoll(t)
		}
		s.finish(kind, t, progressed, err)
	}
}

// next blocks until a work item is available and claims it. It returns
// ok == false when the run is over (all committed, or a fatal error).
func (s *ParallelScheduler) next() (workKind, *Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || s.done {
			return 0, nil, false
		}
		if s.committedUpTo == len(s.txns) {
			s.done = true
			s.cond.Broadcast()
			return 0, nil, false
		}
		// Advance the commit frontier as soon as the lowest-priority
		// uncommitted update has terminated (§5: it can no longer abort
		// once every lower-numbered update has committed).
		if !s.commitInFlight && s.status[s.committedUpTo] == statusTerminated {
			s.commitInFlight = true
			s.inflight++
			return workCommit, nil, true
		}
		// Lowest-numbered runnable transaction first: finishing
		// high-priority updates unblocks the commit frontier and shrinks
		// the abort window of everything above them. The ready queue
		// yields candidates in that order; stale entries (claimed, or
		// no longer in a dispatchable state) are dropped on pop.
		for {
			i, ok := s.ready.pop()
			if !ok {
				break
			}
			if s.claimed[i] {
				continue
			}
			switch s.status[i] {
			case statusReady:
				s.claimed[i] = true
				s.inflight++
				return workStep, s.txns[i], true
			case statusAwaiting:
				s.claimed[i] = true
				s.inflight++
				return workPoll, s.txns[i], true
			}
		}
		if s.inflight == 0 && s.parked == 0 {
			// Unreachable by construction (ready/awaiting txns are always
			// dispatchable and terminated ones feed the commit frontier);
			// fail rather than hang if an invariant breaks. Parked txns
			// are the legitimate exception: they wait on inbox answers
			// (the answer hook or the policy ticker wakes us), with the
			// ticker's own idle counter bounding a silent inbox.
			s.err = fmt.Errorf("cc: parallel dispatch stalled with no work in flight")
			s.cond.Broadcast()
			return 0, nil, false
		}
		s.cond.Wait()
	}
}

// finish returns a work item's claim and accounts for progress. A
// transaction that is still dispatchable goes back on the ready queue
// (the claim was what kept it out).
func (s *ParallelScheduler) finish(kind workKind, t *Txn, progressed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if kind == workCommit {
		s.commitInFlight = false
	} else {
		i := t.Number - 1
		s.claimed[i] = false
		if st := s.status[i]; st == statusReady || st == statusAwaiting {
			s.ready.push(i)
		}
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	if progressed {
		s.idle = 0
		s.parkedIdle = 0
	} else {
		s.idle++
		if s.err == nil && s.idle >= s.idleLimit {
			s.err = fmt.Errorf("cc: no progress after %d idle dispatches (users absent?)", s.idle)
		}
	}
	s.cond.Broadcast()
}

// execStep runs one chase step for a claimed transaction: the write
// half under the exclusive phase lock (plus an allocation-free
// candidate snapshot off the published read-prefix records), the
// direct conflict checks under the shared lock, abort application
// back under the exclusive lock, and finally the read half under the
// shared lock. If the transaction was aborted between any of the
// phases (by a lower-priority writer's conflict wave), the remaining
// phases are abandoned — the storage rollback already happened and
// the dispatcher will rerun the fresh attempt.
func (s *ParallelScheduler) execStep(t *Txn, scratch *stepScratch) (bool, error) {
	var stepStart time.Time
	if s.cfg.Trace.Enabled() {
		stepStart = time.Now()
	}
	s.gmu.Lock()
	if st := t.Upd.State(); st != chase.StateReady {
		s.mu.Lock()
		s.setStatusLocked(t.Number-1, mirrorOf(st))
		s.mu.Unlock()
		s.gmu.Unlock()
		return false, nil
	}
	attempt := t.Upd.Attempt
	res, err := s.engine.StepWrites(t.Upd)
	var cands []conflictCandidate
	var relSeqs []relSeq
	if err != nil {
		err = fmt.Errorf("cc: update %d: %w", t.Number, err)
	} else if len(res.Writes) > 0 {
		// Freeze the victims-to-check and the written stripes' sequence
		// numbers while still exclusive; the expensive AffectedBy
		// evaluations then run under the shared lock. Both collections
		// reuse the worker's scratch — zero allocations in steady state.
		cands = snapshotCandidatesInto(scratch.cands[:0], s.txns, t.Number)
		scratch.cands = cands
		relSeqs = writtenRelSeqsInto(scratch.rels[:0], s.store, res.Writes)
		scratch.rels = relSeqs
	}
	s.gmu.Unlock()
	if err != nil {
		return true, err
	}
	s.merge(Metrics{Steps: 1, Writes: len(res.Writes)})
	obsSteps.Inc()
	obsWrites.Add(int64(len(res.Writes)))
	s.cfg.Trace.Span(t.Number, "step", stepStart)

	if len(cands) > 0 {
		if err := s.processWritesDeferred(t, attempt, res.Writes, cands, relSeqs, scratch); err != nil {
			return true, err
		}
	}

	s.gmu.RLock()
	if t.Upd.Attempt == attempt {
		if _, rerr := s.engine.StepReads(t.Upd, res.Writes); rerr != nil {
			s.gmu.RUnlock()
			return true, fmt.Errorf("cc: update %d: %w", t.Number, rerr)
		}
		st := t.Upd.State()
		s.mu.Lock()
		s.setStatusLocked(t.Number-1, mirrorOf(st))
		s.mu.Unlock()
	}
	s.gmu.RUnlock()
	return true, nil
}

// processWritesDeferred is the out-of-lock half of Algorithm 4's
// conflict processing: the direct AffectedBy checks run under the
// shared phase lock against the frozen candidates, and only if victims
// were marked (never in ModeFlag) is the exclusive lock taken to
// revalidate and execute the abort wave.
func (s *ParallelScheduler) processWritesDeferred(t *Txn, attempt int, writes []storage.WriteRec, cands []conflictCandidate, relSeqs []relSeq, scratch *stepScratch) error {
	var delta Metrics
	var marked []conflictCandidate
	s.gmu.RLock()
	if t.Upd.Attempt == attempt {
		// Our writes are still in place (a rolled-back batch cannot
		// retroactively change anyone's answers).
		marked = directConflicts(s.store, &s.cfg, &scratch.chk, cands, writes, &delta)
	}
	s.gmu.RUnlock()
	if len(marked) == 0 {
		// Nothing to apply; ModeFlag and clean checks end here.
		s.merge(delta)
		return nil
	}

	s.gmu.Lock()
	defer s.gmu.Unlock()
	if t.Upd.Attempt != attempt {
		// The writer itself was aborted in the interim: its writes are
		// gone, and the conflicts died with them.
		return nil
	}
	// Per-stripe sequence validation: if other writers landed in the
	// written relations between the phases, redo the direct check here
	// under the exclusive lock — the conservative original semantics.
	// Disjoint-relation interim writers leave the seqs untouched and
	// the shared-phase verdicts stand.
	stale := false
	for _, rs := range relSeqs {
		if s.store.RelSeq(rs.rel) != rs.seq {
			stale = true
			break
		}
	}
	if stale {
		delta = Metrics{}
		scratch.redo = snapshotCandidatesInto(scratch.redo[:0], s.txns, t.Number)
		marked = directConflicts(s.store, &s.cfg, &scratch.chk, scratch.redo, writes, &delta)
	}
	// Revalidate: a victim whose attempt counter moved on (or that
	// committed) restarted after our writes, so its fresh reads already
	// reflect them and the verdict no longer applies. The prefix
	// record's attempt is compared against the live counter the same
	// way the per-stripe seqs were compared above — an unchanged value
	// proves the frozen reads are still the victim's reads.
	victims := make([]*Txn, 0, len(marked))
	for _, c := range marked {
		if c.t.Upd.Attempt == c.prefix.Attempt && !c.t.committed {
			victims = append(victims, c.t)
		}
	}
	err := executeAbortWave(s.store, &s.cfg, s.txns, victims, &delta, scratch, s.abortLocked)
	s.merge(delta)
	return err
}

// setStatusLocked updates a txn's dispatch mirror, maintaining the
// parked count and resolving the txn's inbox entry once it terminated.
// Callers hold mu.
func (s *ParallelScheduler) setStatusLocked(i int, st txnStatus) {
	old := s.status[i]
	if old == statusParked && st != statusParked {
		s.parked--
	} else if st == statusParked && old != statusParked {
		s.parked++
	}
	s.status[i] = st
	if st == statusTerminated {
		s.resolveEntryLocked(s.txns[i])
	}
}

// unparkLocked moves the txn parked under an inbox entry back into the
// dispatchable set and wakes a worker, reporting the txn's index (false
// when the entry's txn is not parked). Callers hold mu.
func (s *ParallelScheduler) unparkLocked(id int64) (int, bool) {
	t, ok := s.byPark[id]
	if !ok || s.status[t.Number-1] != statusParked {
		return 0, false
	}
	i := t.Number - 1
	s.setStatusLocked(i, statusAwaiting)
	if !s.claimed[i] {
		s.ready.push(i)
	}
	s.parkedIdle = 0
	s.cond.Broadcast()
	return i, true
}

// onAnswer is the inbox's answer hook: an answer was recorded for a
// parked txn, so move it back into the dispatchable set and wake a
// worker to consume it. Runs outside the box lock.
func (s *ParallelScheduler) onAnswer(id int64) {
	s.mu.Lock()
	s.unparkLocked(id)
	s.mu.Unlock()
}

// tickLoop drives the inbox's policy clock while the run lasts: every
// millisecond of wall time is one inbox tick, and due deadline actions
// (auto-answers, aborts) are marked on their txns and dispatched. It
// also bounds a silent inbox: if only parked work exists for
// MaxIdleRounds consecutive ticks, the run fails like the legacy
// absent-users stall instead of hanging.
func (s *ParallelScheduler) tickLoop() {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-tick.C:
		}
		for _, d := range s.cfg.Inbox.Tick(1) {
			if d.Kind == inbox.DueEscalate {
				continue // priority bump already applied by the box
			}
			s.mu.Lock()
			if i, ok := s.unparkLocked(d.ID); ok {
				switch d.Kind {
				case inbox.DueAutoAnswer:
					s.autoAnswer[i] = true
				case inbox.DueAbort:
					s.cancelReq[i] = true
				}
			}
			s.mu.Unlock()
		}
		s.mu.Lock()
		if s.parked > 0 && s.inflight == 0 && s.err == nil && !s.done {
			s.parkedIdle++
			if s.parkedIdle >= s.cfg.MaxIdleRounds {
				s.err = fmt.Errorf("cc: no inbox answers after %d idle ticks (curators absent and no deadline policy?)", s.parkedIdle)
				s.cond.Broadcast()
			}
		}
		s.mu.Unlock()
	}
}

// execPoll offers one frontier decision opportunity to a blocked
// transaction. A deadline abort the ticker marked, or an inbox entry
// aborted out from under the txn, cancels it under the exclusive phase
// lock; everything else runs in pollShared.
func (s *ParallelScheduler) execPoll(t *Txn) (bool, error) {
	i := t.Number - 1
	s.mu.Lock()
	doCancel, doAuto := s.cancelReq[i], s.autoAnswer[i]
	s.cancelReq[i], s.autoAnswer[i] = false, false
	s.mu.Unlock()
	if !doCancel {
		ok, err := s.pollShared(t, doAuto)
		if err != errEntryGone {
			return ok, err
		}
	}
	s.gmu.Lock()
	err := s.cancel(t)
	s.gmu.Unlock()
	s.mu.Lock()
	s.setStatusLocked(i, statusTerminated)
	s.mu.Unlock()
	return true, err
}

// pollShared runs a poll under the shared phase lock (frontier
// operations only plan writes; the planned writes are performed by the
// next step): a live user poll, or in inbox mode the consumption of
// recorded answers — preceded, when the ticker marked a deadline
// auto-answer, by one live consultation of the configured (fallback)
// user, the graceful-degradation path. It then resyncs the dispatch
// mirror and parks an inbox txn left with no answer to consume, so it
// costs zero polls until the answer hook or the ticker wakes it.
func (s *ParallelScheduler) pollShared(t *Txn, doAuto bool) (bool, error) {
	s.gmu.RLock()
	defer s.gmu.RUnlock()
	var d Metrics
	var ok bool
	var err error
	st := t.Upd.State()
	if st == chase.StateAwaitingUser {
		if s.cfg.Inbox == nil || doAuto {
			ok, err = s.pollUser(t, &d)
		}
		if !ok && err == nil && s.cfg.Inbox != nil {
			ok, err = s.inboxPoll(t, &d)
		}
		st = t.Upd.State()
	}
	i := t.Number - 1
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.add(d)
	s.setStatusLocked(i, mirrorOf(st))
	// A stale dispatch just resyncs the mirror. An inbox txn parks only
	// with every recorded answer consumed: one that landed while we
	// polled found it unparked and could not wake it.
	if t.parkID != 0 && st == chase.StateAwaitingUser && !s.cancelReq[i] && !s.autoAnswer[i] {
		if e, found := s.cfg.Inbox.Get(t.parkID); found && t.applied >= len(e.Answers) {
			s.setStatusLocked(i, statusParked)
		}
	}
	return ok, err
}

// execCommit advances the commit frontier under one exclusive
// phase-lock acquisition, so N back-to-back terminations cost one
// store-wide lock round instead of N; the stripe and phase locks are
// released while the batch's pipelined fsync is in flight, which is
// what lets the frontier drain again (and the log coalesce the syncs)
// while an earlier batch is still syncing.
func (s *ParallelScheduler) execCommit() (bool, error) {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	n, err := s.commitReady()
	return n > 0, err
}

// abortLocked is the abort wave's rollback: the core's rollback, then a
// resync of the dispatch mirror. Callers hold the exclusive phase lock;
// bumping the attempt counter under it is what tells a concurrent
// claimant to abandon its stale phase.
func (s *ParallelScheduler) abortLocked(t *Txn) error {
	var delta Metrics
	err := s.rollback(t, &delta)
	s.mu.Lock()
	s.m.add(delta)
	if err == nil {
		i := t.Number - 1
		s.setStatusLocked(i, statusReady)
		if !s.claimed[i] {
			// The victim may belong to no worker right now; requeue it
			// ourselves (a claimant's finish re-queues otherwise).
			s.ready.push(i)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	return err
}
