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

// Txn is one update under concurrency control. The record exists only
// while its txn is live: the scheduler gives it out at the txn's first
// step (Scheduler.start) and takes it back, with its update, at the
// txn's commit, to give it to a later txn. A txn that has not started
// or has committed has no record, so nothing may keep one past its
// commit.
type Txn struct {
	// Upd is the txn's chase update, renewed with the record.
	// Upd.Number is the priority.
	Upd *chase.Update
	// Number is the update's priority.
	Number int

	// deps are the lower-numbered uncommitted updates whose writes
	// influenced this txn's read answers (§5.1), ascending, each once.
	// A renewed record keeps the slice's capacity.
	deps []int
	// committed is set by the commit drain, once the txn terminated and
	// every lower-numbered txn committed: a committed txn can no longer
	// abort, its stored queries are released, and its record goes back
	// to the free list.
	committed bool
	// cancelled is set when cancel dropped the txn's chase: like a
	// committed txn it can no longer abort.
	cancelled bool
	// aborts counts how many times this txn has aborted.
	aborts int
	// sc is the scheduler's scratch, set when the record is made: the
	// trackers' OnRead reaches its checker and scan buffers through it.
	sc *stepScratch
	// park is the inbox entry the txn is parked under (nil = not
	// parked).
	park *parkState
}

// Deps returns the recorded read dependencies in ascending order, for
// inspection. The slice is the txn's own and, like the record, valid
// only while the txn is live; callers must not modify it.
func (t *Txn) Deps() []int { return t.deps }

// dependsOn reports whether the txn recorded a dependency on writer.
func (t *Txn) dependsOn(writer int) bool {
	_, ok := slices.BinarySearch(t.deps, writer)
	return ok
}

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
	scratch stepScratch
	// lastAck is the ack of the run's latest durable commit batch. A
	// covering sync covers every batch appended before it, so waiting
	// on the last ack acknowledges every earlier batch too.
	lastAck storage.CommitAck

	// window holds the records of the live txns, committedUpTo+1..top()
	// in number order: top is the highest number start has admitted.
	// Algorithm 4 checks a write only against the stored reads of
	// uncommitted updates numbered above the writer, and cascades only
	// through reads. A txn below the window has committed and released
	// its reads; a txn above it has never stepped, so it has no stored
	// reads and no dependencies. Conflict processing therefore walks
	// only the window (live) and misses no victim.
	window        []*Txn
	committedUpTo int // txns 1..committedUpTo have committed
	// free holds committed txns' records, each with its update, for
	// start to renew; commitReady fills it.
	free []*Txn
	// numbers is commitReady's list of a batch's update numbers, reused
	// from batch to batch: the store keeps nothing of it.
	numbers []int
	m       Metrics
	byPark  map[int64]*Txn // inbox entry ID -> parked txn

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

// Metrics returns the metrics collected so far. Like every method, it
// runs on the goroutine that called Run, or after Run returned.
func (s *Scheduler) Metrics() Metrics { return s.m }

// onRead is the chase engine's read observer: it forwards each stored
// read to the tracker for dependency computation (§5.1: dependencies
// are determined when the read is issued). Flag mode never cascades,
// so it skips dependency tracking.
func (s *Scheduler) onRead(u *chase.Update, q query.ReadQuery) {
	if s.cfg.Mode == ModeFlag {
		return
	}
	if t := s.txn(u.Number); t != nil {
		s.cfg.Tracker.OnRead(s.store, t, q)
	}
}

// txn returns the record of live txn n, or nil when n has not started
// or has committed.
func (s *Scheduler) txn(n int) *Txn {
	if i := n - 1 - s.committedUpTo; i >= 0 && i < len(s.window) {
		return s.window[i]
	}
	return nil
}

// begin starts the run clock and submits the workload: ops[i] becomes
// txn number i+1. No txn has a record yet; start gives each its own at
// its first step.
func (s *Scheduler) begin(ops []chase.Op) {
	s.started = time.Now()
	s.syncs0 = s.store.SyncCount()
	s.ops = ops
	if s.cfg.Workers == 0 {
		// The first round starts every txn.
		s.window = make([]*Txn, 0, len(ops))
	}
	for i := range ops {
		s.cfg.Trace.Note(i+1, "submit")
	}
	s.m.Submitted = len(ops)
	if s.cfg.Inbox != nil {
		s.byPark = make(map[int64]*Txn)
	}
}

// start admits the next txn, top+1, before its first step: it extends
// the live window with a record for it, a committed txn's record and
// update from the free list, renewed, or new ones.
func (s *Scheduler) start() *Txn {
	n := s.top() + 1
	op := s.ops[n-1]
	var t *Txn
	if k := len(s.free); k > 0 {
		t = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		t.Upd.Renew(n, op)
		*t = Txn{Upd: t.Upd, Number: n, deps: t.deps[:0], sc: t.sc}
	} else {
		t = &Txn{Upd: chase.NewUpdate(n, op), Number: n, sc: &s.scratch}
	}
	s.window = append(s.window, t)
	return t
}

// top returns the highest number start has admitted.
func (s *Scheduler) top() int { return s.committedUpTo + len(s.window) }

// live returns the live window: the records of txns
// committedUpTo+1..top(), consecutively numbered.
func (s *Scheduler) live() []*Txn { return s.window }

// loop runs commit drains and rounds until every txn committed or the
// run fails.
func (s *Scheduler) loop() error {
	idle := 0
	for {
		if _, err := s.commitReady(); err != nil {
			return err
		}
		if s.committedUpTo == len(s.ops) {
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

// end acknowledges the run's commits — nothing is acknowledged, Run
// included, until a covering sync landed — and completes the run's
// metrics. The wait on the last ack runs that sync on this goroutine,
// one fsync for every batch the run appended, and each committed
// update's trace gets its "ack" once it lands. runErr is the run's own
// failure; a failed sync is reported when there is none.
func (s *Scheduler) end(runErr error) (Metrics, error) {
	if s.lastAck != nil {
		err := s.lastAck()
		if err == nil && s.cfg.Trace.Enabled() {
			for n := 1; n <= s.committedUpTo; n++ {
				s.cfg.Trace.Note(n, "ack")
			}
		}
		if runErr == nil {
			runErr = err
		}
	}
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
// store one log append, whose fsync is deferred — CommitBatchAsync
// returns once the batch is in the log and the scheduler keeps running;
// end waits on the last drain's ack, whose covering sync lands every
// drain of the run at once. The committed txns' records leave the
// window for the free list.
func (s *Scheduler) commitReady() (int, error) {
	batch := s.window
	for i, t := range batch {
		if t.Upd.State() != chase.StateTerminated {
			batch = batch[:i]
			break
		}
	}
	if len(batch) == 0 {
		return 0, nil
	}
	numbers := s.numbers[:0]
	for _, t := range batch {
		numbers = append(numbers, t.Number)
	}
	s.numbers = numbers
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
	if ack != nil {
		s.lastAck = ack
	} else if s.cfg.Trace.Enabled() {
		// In memory (or under a no-sync log) the commit is all the
		// durability there is.
		for _, n := range numbers {
			s.cfg.Trace.Note(n, "ack")
		}
	}
	for _, t := range batch {
		t.committed = true
		s.m.FrontierRequests += t.Upd.Stats.FrontierRequests
		// Released stored queries can no longer cause conflicts. The
		// release hands the reads to the engine's read pool for later
		// reads, so it comes after the drain that committed them.
		t.Upd.ReleaseReads()
		s.resolveEntry(t)
		if testCommitted != nil {
			testCommitted(t)
		}
	}
	forgetCommitted(s.cfg.User, batch)
	obsCommitBatches.Inc()
	obsUpdatesCommitted.Add(int64(len(batch)))
	obsCommitBatchSize.Observe(int64(len(batch)))
	s.m.CommitBatches++
	s.m.MaxCommitBatch = max(s.m.MaxCommitBatch, len(batch))
	s.committedUpTo += len(batch)
	// The records, updates included, go to the free list for the next
	// txns' starts, and the window keeps its array.
	s.free = append(s.free, batch...)
	n := copy(s.window, s.window[len(batch):])
	clear(s.window[n:])
	s.window = s.window[:n]
	return len(batch), nil
}

// testCommitted, when non-nil, is shown every txn's record at its
// commit, before the record goes back to the free list, so that tests
// can observe what a txn recorded.
var testCommitted func(t *Txn)

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
// inbox entry is dropped. Until that commit the txn stays in the live
// window, so cancel also takes it out of conflict processing: its
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
