package cc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// ParallelScheduler drives a workload of updates to termination in the
// cooperative scheduler's rounds (Algorithm 3), with each round's read
// halves fanned out over its workers: Config.Workers goroutines, capped
// at GOMAXPROCS. A round gives the lowest-numbered eligible txns, at
// most one per worker, one opportunity each, in two phases split by a
// barrier:
//
//   - The write phase runs on the calling goroutine, in priority order:
//     each selected txn's first step starts it, its pending writes land
//     (Engine.StepWrites), and Algorithm 4's conflict processing of
//     those writes — detection, cascade, rollbacks — runs at once, as on
//     the cooperative scheduler (txnCore.processWrites). The check runs
//     against read logs that are complete: no read half is in flight.
//   - The read phase runs each stepped txn's read half (violation
//     discovery, queue recheck, repair planning; Engine.StepReads) and
//     each blocked txn's poll, spread over the workers. Every read half
//     only reads the store and logs its reads on its own update, so the
//     phase observes the store exactly as if its halves ran one after
//     another between two steps of the serial interleaving.
//
// A read is therefore either in its reader's log when a write is
// checked, or was performed after the write landed, and its answer
// already reflects the write; the tracker records the dependency.
// Theorem 4.4's serializability argument carries over unchanged. Which
// worker runs which half changes nothing a half computes, so a run is a
// function of its workload, configuration, user and worker count (and,
// in inbox mode, of when outside answers arrive): it replays exactly.
//
// Between rounds, updates commit strictly in priority order once
// terminated, through the commit frontier shared with the cooperative
// scheduler (txnCore.loop).
type ParallelScheduler struct {
	txnCore

	// workers[0] belongs to the calling goroutine, the rest to the
	// helpers Run starts; each holds its worker's own scratch and
	// metrics delta, merged after every read phase.
	workers []worker
	// picked is the round's selection, in priority order.
	picked []pick
	// next is the read phase's claim counter over picked.
	next atomic.Int32
	// wake hands a helper one read phase; phase is the barrier that
	// ends it.
	wake  chan struct{}
	phase sync.WaitGroup
}

// worker is one goroutine's state in the read phase.
type worker struct {
	scratch stepScratch
	m       Metrics
}

// pick is a selected txn's opportunity in one round.
type pick struct {
	t *Txn
	// attempt is the update's attempt when its write half ran (a step)
	// or when it was selected (a poll): a rollback in the write phase
	// bumps it, and the read half is then skipped.
	attempt int
	// poll marks a txn that awaits a user: its read half is a poll.
	poll   bool
	writes []storage.WriteRec
	// progressed and err are the read half's outcome.
	progressed bool
	err        error
}

// NewParallelScheduler builds a parallel scheduler over a store and
// mapping set. Config.Workers selects the worker count; zero means
// GOMAXPROCS. The count is capped at GOMAXPROCS: an update in flight
// that no goroutine can step only adds conflict exposure. The Policy
// field is ignored: a round gives each selected txn one step.
func NewParallelScheduler(store storage.Backend, set *tgd.Set, cfg Config) *ParallelScheduler {
	procs := runtime.GOMAXPROCS(0)
	if cfg.Workers == 0 {
		cfg.Workers = procs
	}
	s := &ParallelScheduler{}
	s.init(store, set, cfg)
	// Run rejects a negative count before any worker runs.
	s.workers = make([]worker, max(min(cfg.Workers, procs), 1))
	s.picked = make([]pick, 0, len(s.workers))
	return s
}

// Run executes the workload: ops[i] becomes update number i+1. It
// blocks until every update has committed and returns the collected
// metrics; the error reports stalls (absent users), step-limit or
// abort-limit overruns, or storage failures.
func (s *ParallelScheduler) Run(ops []chase.Op) (Metrics, error) {
	if err := s.cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	s.begin(ops, &s.workers[0].scratch)
	stop := s.startHelpers()
	err := s.loop(s.round)
	stop()
	return s.end(err)
}

// startHelpers starts the Workers-1 helper goroutines, each taking its
// share of every read phase it is woken for, and returns the function
// that stops them.
func (s *ParallelScheduler) startHelpers() (stop func()) {
	s.wake = make(chan struct{}, len(s.workers)-1)
	var helpers sync.WaitGroup
	for i := 1; i < len(s.workers); i++ {
		helpers.Add(1)
		go func(w *worker) {
			defer helpers.Done()
			for range s.wake {
				s.readShare(w)
				s.phase.Done()
			}
		}(&s.workers[i])
	}
	return func() {
		close(s.wake)
		helpers.Wait()
	}
}

// round performs one scheduler round: it selects the eligible txns,
// runs their write halves in priority order, then their read halves
// across the workers. It reports whether any txn made progress.
func (s *ParallelScheduler) round() (bool, error) {
	s.selectPicks()
	w0 := &s.workers[0]
	progressed := false
	for i := range s.picked {
		if p := &s.picked[i]; !p.poll {
			if err := s.writeHalf(p, w0); err != nil {
				return true, err
			}
			progressed = true
		}
	}
	reads := 0
	for i := range s.picked {
		if p := &s.picked[i]; p.t.Upd.Attempt == p.attempt {
			reads++
		}
	}
	if reads > 0 {
		helpers := reads - 1
		s.next.Store(0)
		s.phase.Add(helpers)
		for range helpers {
			s.wake <- struct{}{}
		}
		s.readShare(w0)
		s.phase.Wait()
	}
	s.mu.Lock()
	for i := range s.workers {
		s.m.add(s.workers[i].m)
		s.workers[i].m = Metrics{}
	}
	s.mu.Unlock()
	// Outcomes in priority order, so the first error and every cancel
	// are the same whichever worker ran which half.
	for i := range s.picked {
		p := &s.picked[i]
		switch {
		case p.err == errEntryGone:
			// The txn's inbox entry was aborted out from under it.
			if err := s.cancel(p.t); err != nil {
				return true, err
			}
			progressed = true
		case p.err != nil:
			return true, p.err
		case p.progressed:
			progressed = true
		}
	}
	return progressed, nil
}

// selectPicks selects the round's txns: the lowest-numbered uncommitted
// txns, at most one per worker, that have not started, are ready, or
// await a user. A parked inbox txn is selected only when a poll can
// move it (parkState.pollable).
func (s *ParallelScheduler) selectPicks() {
	s.picked = s.picked[:0]
	for _, t := range s.txns[s.committedUpTo:] {
		if len(s.picked) == len(s.workers) {
			return
		}
		p := pick{t: t}
		if t.Upd != nil {
			switch t.Upd.State() {
			case chase.StateReady:
			case chase.StateAwaitingUser:
				if t.park != nil && !t.park.pollable(s.cfg.Inbox, t.Upd) {
					continue
				}
				p.poll, p.attempt = true, t.Upd.Attempt
			default:
				continue
			}
		}
		s.picked = append(s.picked, p)
	}
}

// writeHalf starts a selected txn if it has not started, performs its
// pending writes, and runs the conflict processing of those writes,
// with counters into w's delta.
func (s *ParallelScheduler) writeHalf(p *pick, w *worker) error {
	var stepStart time.Time
	if s.cfg.Trace.Enabled() {
		stepStart = time.Now()
	}
	t := p.t
	t.sc = &w.scratch
	u := s.start(t)
	p.attempt = u.Attempt
	res, err := s.engine.StepWrites(u)
	if err != nil {
		return fmt.Errorf("cc: update %d: %w", t.Number, err)
	}
	p.writes = res.Writes
	w.m.Steps++
	w.m.Writes += len(res.Writes)
	obsSteps.Inc()
	obsWrites.Add(int64(len(res.Writes)))
	s.cfg.Trace.Span(t.Number, "step", stepStart)
	return s.processWrites(res.Writes, &w.m, &w.scratch, func(v *Txn) error {
		return s.rollback(v, &w.m)
	})
}

// readShare claims and runs read halves until the round has none left.
func (s *ParallelScheduler) readShare(w *worker) {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.picked) {
			return
		}
		p := &s.picked[i]
		t := p.t
		if t.Upd.Attempt != p.attempt {
			continue // rolled back in the write phase
		}
		t.sc = &w.scratch
		switch {
		case !p.poll:
			if _, err := s.engine.StepReads(t.Upd, p.writes); err != nil {
				p.err = fmt.Errorf("cc: update %d: %w", t.Number, err)
			}
		case s.cfg.Inbox == nil:
			p.progressed, p.err = s.pollUser(t, &w.m)
		default:
			p.progressed, p.err = s.inboxPoll(t, &w.m)
		}
	}
}
