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
//   - The write half of a step runs under the exclusive phase lock,
//     and Algorithm 4's conflict processing of its writes — detection,
//     cascade, rollbacks — runs in the same section, as on the
//     cooperative scheduler (txnCore.processWrites). The check happens
//     where the write lands, against read logs that are complete:
//     every engine call runs under the phase lock, so none is in
//     flight.
//   - The read half (violation discovery, queue recheck, repair
//     planning) and frontier-operation polling run under the shared
//     phase lock, so the read-dominated bulk of chase work proceeds in
//     parallel across updates. Reads are logged only inside such a
//     phase, on the update's own log.
//
// A read is therefore either in its reader's log when a write is
// checked, or was performed after the write landed, and its answer
// already reflects the write; the tracker records the dependency. Each
// read phase observes the store exactly as if it ran between two steps
// of the serial interleaving, which is the paper's execution model;
// Theorem 4.4's serializability argument carries over unchanged.
//
// Updates commit strictly in priority order once terminated, through
// the transaction core shared with the cooperative scheduler: one
// exclusive-lock acquisition drains the whole terminated prefix through
// a single storage group commit. A worker that had claimed a
// transaction aborted by another step's conflict wave notices the
// bumped attempt counter at its next lock acquisition and abandons the
// stale phase.
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
	if cfg.Workers == 0 {
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
	if err := s.cfg.Validate(); err != nil {
		return Metrics{}, err
	}
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
// half and the conflict processing of its writes under the exclusive
// phase lock, then the read half under the shared lock. A txn's first
// step starts it under the exclusive lock, where the live window's top
// moves. If the transaction was aborted in between (by an abort wave),
// the read half is abandoned — the storage rollback already happened
// and the dispatcher will rerun the fresh attempt.
func (s *ParallelScheduler) execStep(t *Txn, scratch *stepScratch) (bool, error) {
	var stepStart time.Time
	if s.cfg.Trace.Enabled() {
		stepStart = time.Now()
	}
	s.gmu.Lock()
	u := s.start(t)
	if st := u.State(); st != chase.StateReady {
		s.mu.Lock()
		s.setStatusLocked(t.Number-1, mirrorOf(st))
		s.mu.Unlock()
		s.gmu.Unlock()
		return false, nil
	}
	attempt := u.Attempt
	res, err := s.engine.StepWrites(u)
	if err != nil {
		s.gmu.Unlock()
		return true, fmt.Errorf("cc: update %d: %w", t.Number, err)
	}
	delta := Metrics{Steps: 1, Writes: len(res.Writes)}
	obsSteps.Inc()
	obsWrites.Add(int64(len(res.Writes)))
	s.cfg.Trace.Span(t.Number, "step", stepStart)
	err = s.processWrites(res.Writes, &delta, scratch, s.abortLocked)
	s.gmu.Unlock()
	s.merge(delta)
	if err != nil {
		return true, err
	}

	s.gmu.RLock()
	if u.Attempt == attempt {
		if _, rerr := s.engine.StepReads(u, res.Writes); rerr != nil {
			s.gmu.RUnlock()
			return true, fmt.Errorf("cc: update %d: %w", t.Number, rerr)
		}
		st := u.State()
		s.mu.Lock()
		s.setStatusLocked(t.Number-1, mirrorOf(st))
		s.mu.Unlock()
	}
	s.gmu.RUnlock()
	return true, nil
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
	// once its last replay was offered every recorded answer: one that
	// landed while we polled found it unparked and could not wake it.
	if p := t.park; p != nil && st == chase.StateAwaitingUser && !s.cancelReq[i] && !s.autoAnswer[i] {
		if e, found := s.cfg.Inbox.Get(p.id); found && p.offered >= len(e.Answers) {
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
