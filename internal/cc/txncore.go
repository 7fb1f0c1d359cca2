package cc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// Txn is one update under concurrency control. The record lasts for
// the whole run, so Txns and Deps still answer after Run returns.
type Txn struct {
	// Upd is the chase update while the txn is live: nil until the
	// scheduler gives the txn its first step, and nil again once it
	// commits, when the update goes back to the run's free list and is
	// renewed for a later txn's first step (Scheduler.start). Upd.Number
	// is the priority.
	Upd *chase.Update
	// Number is the update's priority; it outlives Upd.
	Number int

	// deps are the lower-numbered uncommitted updates whose writes
	// influenced this txn's read answers (§5.1), ascending, each once.
	deps []int
	// committed is set once the txn terminated and every lower-numbered
	// txn committed; committed txns can no longer abort and their
	// stored queries are released.
	committed bool
	// cancelled is set when cancel dropped the txn's chase: like a
	// committed txn it can no longer abort.
	cancelled bool
	// aborts counts how many times this txn has aborted.
	aborts int
	// sc is the scheduler's scratch, set at submission: the trackers'
	// OnRead reaches its checker and scan buffers through it.
	sc *stepScratch
	// park is the inbox entry the txn is parked under (nil = not
	// parked).
	park *parkState
}

// Deps returns the recorded read dependencies in ascending order, for
// inspection. The slice is the txn's own; callers must not modify it.
func (t *Txn) Deps() []int { return t.deps }

// dependsOn reports whether the txn recorded a dependency on writer.
func (t *Txn) dependsOn(writer int) bool {
	_, ok := slices.BinarySearch(t.deps, writer)
	return ok
}

// Committed reports whether the txn has committed.
func (t *Txn) Committed() bool { return t.committed }

// Aborts returns how many times the txn has aborted so far.
func (t *Txn) Aborts() int { return t.aborts }

// addDep records a read dependency on a lower-numbered uncommitted
// update.
func (t *Txn) addDep(writer int) {
	if writer == 0 || writer == t.Number || writer > t.Number {
		return
	}
	if i, ok := slices.BinarySearch(t.deps, writer); !ok {
		t.deps = slices.Insert(t.deps, i, writer)
	}
}

// Scheduler drives a workload of updates to termination under
// optimistic concurrency control (Algorithms 3 and 4) on the goroutine
// that called Run: its loop alternates commit-frontier drains with
// rounds, and a round gives the lowest-numbered eligible updates, at
// most Config.Workers of them, one opportunity each, in priority order.
// A run is a function of its workload, configuration and user (and, in
// inbox mode, of when outside answers arrive): it replays exactly.
type Scheduler struct {
	store   storage.Backend
	engine  *chase.Engine
	cfg     Config
	ops     []chase.Op
	txns    []*Txn
	acks    ackTracker
	scratch stepScratch

	// The live window, txns[committedUpTo:top]: top is the highest
	// number start has given a chase.Update. Algorithm 4 checks a write
	// only against the stored reads of uncommitted updates numbered
	// above the writer, and cascades only through reads. A txn below
	// the window has committed and released its reads; a txn above it
	// has never stepped, so it has no stored reads and no dependencies.
	// Conflict processing therefore walks only the window (live) and
	// misses no victim.
	top           int
	committedUpTo int // txns[:committedUpTo] have committed
	// free holds committed txns' updates for start to renew; commitReady
	// fills it.
	free   []*chase.Update
	m      Metrics
	byPark map[int64]*Txn // inbox entry ID -> parked txn

	started time.Time
	syncs0  int64
}

// NewScheduler builds a scheduler over a store and mapping set,
// applying the Config defaults and installing the read observer on its
// chase engine.
func NewScheduler(store storage.Backend, set *tgd.Set, cfg Config) *Scheduler {
	if cfg.Tracker == nil {
		cfg.Tracker = Coarse{}
	}
	if cfg.MaxIdleRounds == 0 {
		cfg.MaxIdleRounds = 10000
	}
	s := &Scheduler{store: store, cfg: cfg, engine: chase.NewEngine(store, set)}
	s.engine.SetReadObserver(s.onRead)
	return s
}

// NewParallelScheduler is NewScheduler.
//
// Deprecated: use NewScheduler; Config.Workers is its round width.
func NewParallelScheduler(store storage.Backend, set *tgd.Set, cfg Config) *Scheduler {
	return NewScheduler(store, set, cfg)
}

// Txns returns the scheduler's transactions (after Run started).
func (s *Scheduler) Txns() []*Txn { return s.txns }

// Metrics returns the metrics collected so far. Like every method, it
// runs on the goroutine that called Run, or after Run returned.
func (s *Scheduler) Metrics() Metrics { return s.m }

// onRead is the chase engine's read observer: it forwards each stored
// read to the tracker for dependency computation (§5.1: dependencies
// are determined when the read is issued). Flag mode never cascades,
// so it skips dependency tracking.
func (s *Scheduler) onRead(u *chase.Update, q query.ReadQuery) {
	if s.cfg.Mode == ModeFlag || u.Number < 1 || u.Number > len(s.txns) {
		return
	}
	if t := s.txns[u.Number-1]; t != nil {
		s.cfg.Tracker.OnRead(s.store, t, q)
	}
}

// begin starts the run clock and submits the workload: ops[i] becomes
// txn number i+1. No txn has an update yet.
func (s *Scheduler) begin(ops []chase.Op) {
	s.started = time.Now()
	s.syncs0 = s.store.SyncCount()
	s.acks.init(s.cfg.Trace)
	s.ops = ops
	recs := make([]Txn, len(ops))
	s.txns = make([]*Txn, len(ops))
	for i := range recs {
		recs[i] = Txn{Number: i + 1, sc: &s.scratch}
		s.txns[i] = &recs[i]
		s.cfg.Trace.Note(i+1, "submit")
	}
	s.m.Submitted = len(ops)
	if s.cfg.Inbox != nil {
		s.byPark = make(map[int64]*Txn)
	}
}

// start returns a txn's update. At the txn's first step it gives it
// one, extending the live window: a committed txn's update from the
// free list, renewed, or a new one.
func (s *Scheduler) start(t *Txn) *chase.Update {
	if t.Upd != nil {
		return t.Upd
	}
	op := s.ops[t.Number-1]
	var u *chase.Update
	if n := len(s.free); n > 0 {
		u = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		u.Renew(t.Number, op)
	} else {
		u = chase.NewUpdate(t.Number, op)
	}
	t.Upd = u
	s.top = max(s.top, t.Number)
	return u
}

// live returns the live window (see top).
func (s *Scheduler) live() []*Txn { return s.txns[s.committedUpTo:s.top] }

// loop runs commit drains and rounds until every txn committed or the
// run fails.
func (s *Scheduler) loop() error {
	idle := 0
	for {
		if _, err := s.commitReady(); err != nil {
			return err
		}
		if s.committedUpTo == len(s.txns) {
			return nil
		}
		progressed, err := s.round()
		if err != nil {
			return err
		}
		if !progressed && len(s.byPark) > 0 {
			// Parked updates wait on external answers or policy
			// deadlines, not on scheduler rounds: advance the inbox
			// clock, execute what came due, and pace the wait. The idle
			// limit still applies, bounding a silent inbox with no
			// deadline policy.
			if progressed, err = s.inboxIdle(); err != nil {
				return err
			}
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		if idle >= s.cfg.MaxIdleRounds {
			return fmt.Errorf("cc: no progress after %d idle rounds (users absent?)", idle)
		}
	}
}

// end settles the commit pipeline — nothing is acknowledged, Run
// included, until its covering sync landed — and completes the run's
// metrics. runErr is the run's own failure; a failed sync is reported
// when there is none.
func (s *Scheduler) end(runErr error) (Metrics, error) {
	if err := s.acks.wait(); err != nil && runErr == nil {
		runErr = err
	}
	s.m.CommitAckP50, s.m.CommitAckP99 = s.acks.percentiles()
	s.m.WALSyncs = int(s.store.SyncCount() - s.syncs0)
	s.m.Runs = s.m.Submitted + s.m.Aborts
	s.m.WallTime = time.Since(s.started)
	return s.m, runErr
}

// commitReady advances the commit frontier — updates commit in priority
// order once terminated (§5: a terminated update can still be aborted
// until every lower-numbered update has terminated) — and returns how
// many txns it committed. The whole terminated prefix above
// committedUpTo drains through one storage group commit: on a durable
// store one log append, whose fsync is pipelined — CommitBatchAsync
// returns once the batch is in the log, the scheduler keeps running
// while the disk works, and the ack tracker settles the sync before Run
// returns, so back-to-back drains can share one fsync.
func (s *Scheduler) commitReady() (int, error) {
	batch := s.txns[s.committedUpTo:]
	for i, t := range batch {
		if t.Upd == nil || t.Upd.State() != chase.StateTerminated {
			batch = batch[:i]
			break
		}
	}
	if len(batch) == 0 {
		return 0, nil
	}
	numbers := make([]int, len(batch))
	for i, t := range batch {
		numbers[i] = t.Number
	}
	ackStart := time.Now()
	ack, err := s.store.CommitBatchAsync(numbers)
	if err != nil {
		return 0, fmt.Errorf("cc: commit of updates %d..%d: %w",
			numbers[0], numbers[len(numbers)-1], err)
	}
	if s.cfg.Trace.Enabled() {
		for _, n := range numbers {
			s.cfg.Trace.NoteDetail(n, "commit", fmt.Sprintf("batch_size=%d", len(numbers)))
		}
	}
	s.acks.track(ackStart, ack, numbers)
	for _, t := range batch {
		t.committed = true
		s.m.FrontierRequests += t.Upd.Stats.FrontierRequests
		// Released stored queries can no longer cause conflicts, and
		// the update leaves the window for the next txn's start.
		t.Upd.ReleaseReads()
		s.free = append(s.free, t.Upd)
		t.Upd = nil
		s.resolveEntry(t)
	}
	forgetCommitted(s.cfg.User, batch)
	obsCommitBatches.Inc()
	obsUpdatesCommitted.Add(int64(len(batch)))
	obsCommitBatchSize.Observe(int64(len(batch)))
	s.m.CommitBatches++
	s.m.MaxCommitBatch = max(s.m.MaxCommitBatch, len(batch))
	s.committedUpTo += len(batch)
	return len(batch), nil
}

// pollUser offers a blocked txn one live frontier decision
// (Engine.DecideOne), reporting whether it applied one.
func (s *Scheduler) pollUser(t *Txn) (bool, error) {
	if s.cfg.User == nil {
		return false, nil
	}
	u := t.Upd
	ok, err := s.engine.DecideOne(u, func(g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool, error) {
		s.m.UserPolls++
		obsUserPolls.Inc()
		d, ok := s.cfg.User.Decide(u, g, opts, ctx)
		return d, ok, nil
	})
	if err != nil {
		return false, fmt.Errorf("cc: update %d frontier op: %w", u.Number, err)
	}
	if ok {
		s.m.FrontierOps++
	}
	return ok, nil
}

// errEntryGone reports a parked txn whose inbox entry was aborted out
// from under it; the scheduler cancels the txn.
var errEntryGone = errors.New("cc: inbox entry aborted")

// inboxPoll is a blocked txn's scheduling opportunity in inbox mode:
// park on first block, then replay recorded answers as they arrive
// (inbox.Replay) — never a live user poll, so waiting costs zero
// Decide calls — and re-ask when the entry no longer shows the
// question the update blocks on. It reports whether it parked the txn
// or applied an answer.
func (s *Scheduler) inboxPoll(t *Txn) (bool, error) {
	if t.park == nil {
		q, ok := inbox.Ask(s.engine, t.Upd)
		if !ok {
			return false, nil
		}
		q.Policy = s.cfg.InboxPolicy
		id := s.cfg.Inbox.Park(q)
		t.park = &parkState{id: id, steps: t.Upd.Stats.Steps}
		s.byPark[id] = t
		obsParked.Inc()
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.NoteDetail(t.Number, "park", fmt.Sprintf("entry=%d", id))
		}
		return true, nil
	}
	p := t.park
	e, ok := s.cfg.Inbox.Get(p.id)
	if !ok {
		return false, errEntryGone
	}
	p.used = append(p.used, make([]bool, len(e.Answers)-len(p.used))...)
	p.offered, p.steps = len(e.Answers), t.Upd.Stats.Steps
	applied, err := inbox.Replay(s.engine, t.Upd, e.Answers, p.used)
	if err != nil {
		return false, fmt.Errorf("cc: update %d inbox answer: %w", t.Number, err)
	}
	if !applied {
		reaskIfStale(s.engine, s.cfg.Inbox, t.Upd, &e)
		return false, nil
	}
	s.m.FrontierOps++
	obsResumed.Inc()
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.NoteDetail(t.Number, "answer", fmt.Sprintf("entry=%d", e.ID))
		s.cfg.Trace.Note(t.Number, "resume")
	}
	return true, nil
}

// cancel aborts an update for good: its writes roll back, the update
// becomes an empty terminated commit (preserving commit order), and its
// inbox entry is dropped. Until that commit the update stays in the
// txn list, so cancel also takes it out of conflict processing: its
// reads are released, as at commit, and the abort wave skips it. An
// empty commit depends on nothing, and rolling it back would re-plan
// the initial operation the deadline policy dropped.
func (s *Scheduler) cancel(t *Txn) error {
	if t.committed {
		return fmt.Errorf("cc: cancel of committed update %d", t.Number)
	}
	if t.Upd.State() != chase.StateTerminated {
		s.store.Abort(t.Number)
		t.Upd.Cancel()
		t.Upd.ReleaseReads()
		t.deps = t.deps[:0]
		t.cancelled = true
	}
	s.dropEntry(t)
	s.m.Cancelled++
	obsCancelled.Inc()
	s.cfg.Trace.Note(t.Number, "cancel")
	return nil
}

// processWrites is Algorithm 4's conflict processing of one step's
// writes over the live window: direct detection against the stored
// reads of the updates numbered above the writer, then the abort wave —
// dependency cascade, rollbacks, and abort-side drift rechecks. It must
// run right after the step that performed the writes. Conflicts only
// abort updates numbered above the writer; an abort-side drift check
// may still restart the writer itself.
func (s *Scheduler) processWrites(writes []storage.WriteRec) error {
	if len(writes) == 0 {
		return nil
	}
	var checkStart time.Time
	if s.cfg.Trace.Enabled() {
		checkStart = time.Now()
	}
	live := s.live()
	direct := collectDirect(s.store, &s.cfg, live, writes, &s.m, &s.scratch)
	s.cfg.Trace.Span(writes[0].Writer, "conflict_check", checkStart)
	return executeAbortWave(s.store, &s.cfg, live, direct, &s.m, &s.scratch, s.rollback)
}

// rollback is the abort wave's rollback of one victim: rollbackTxn's
// storage-level abort and restart, then the victim's inbox entry goes —
// a parked victim's question is void, its attempt restarts from
// scratch.
func (s *Scheduler) rollback(t *Txn) error {
	if err := rollbackTxn(s.store, &s.cfg, t, &s.m); err != nil {
		return err
	}
	s.dropEntry(t)
	return nil
}

// resolveEntry removes a finished txn's inbox entry.
func (s *Scheduler) resolveEntry(t *Txn) {
	if t.park != nil {
		s.cfg.Inbox.Resolve(t.park.id)
		delete(s.byPark, t.park.id)
		t.park = nil
	}
}

// dropEntry aborts the inbox entry of a txn that restarted or was
// cancelled: its question is void.
func (s *Scheduler) dropEntry(t *Txn) {
	if t.park != nil {
		s.cfg.Inbox.Abort(t.park.id)
		delete(s.byPark, t.park.id)
		t.park = nil
	}
}
