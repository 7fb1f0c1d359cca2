package cc

import (
	"errors"
	"fmt"
	"sync"
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
	// renewed for a later txn's first step (txnCore.start). Upd.Number
	// is the priority.
	Upd *chase.Update
	// Number is the update's priority; it outlives Upd.
	Number int

	// deps are the lower-numbered uncommitted updates whose writes
	// influenced this txn's read answers (§5.1); nil until the first
	// dependency.
	deps map[int]bool
	// committed is set once the txn terminated and every lower-numbered
	// txn committed; committed txns can no longer abort and their
	// stored queries are released.
	committed bool
	// cancelled is set when cancel dropped the txn's chase: like a
	// committed txn it can no longer abort.
	cancelled bool
	// aborts counts how many times this txn has aborted.
	aborts int
	// sc is the scratch of the goroutine stepping the txn, set by the
	// scheduler before each step: the trackers' OnRead reaches that
	// goroutine's checker and scan buffer through it.
	sc *stepScratch
	// park is the inbox entry the txn is parked under (nil = not
	// parked).
	park *parkState
}

// Deps returns the recorded read dependencies, for inspection.
func (t *Txn) Deps() map[int]bool { return t.deps }

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
	if t.deps == nil {
		t.deps = make(map[int]bool)
	}
	t.deps[writer] = true
}

// txnCore is the transaction lifecycle of Algorithms 3 and 4 that both
// schedulers embed: submission, the read observer, the round loop with
// its priority-ordered commit frontier, live user polls, inbox
// park/consume/re-ask, cancellation, rollback and the run epilogue. The
// schedulers differ only in their round: the cooperative Scheduler
// steps every unfinished txn on its one goroutine, the
// ParallelScheduler steps a few and fans their read halves out over
// its workers. Everything but the read halves and polls runs on the
// goroutine that called Run, with no read half in flight.
type txnCore struct {
	store  storage.Backend
	engine *chase.Engine
	cfg    Config
	ops    []chase.Op
	txns   []*Txn
	acks   ackTracker

	// The live window, txns[committedUpTo:top]: top is the highest
	// number start has given a chase.Update. Algorithm 4 checks a write
	// only against the stored reads of uncommitted updates numbered
	// above the writer, and cascades only through reads. A txn below
	// the window has committed and released its reads; a txn above it
	// has never stepped, so it has no stored reads and no dependencies.
	// Conflict processing therefore walks only the window (live) and
	// misses no victim. top is written and read only where conflict
	// processing runs, on the goroutine that called Run, where
	// committedUpTo also only changes.
	top int
	// free holds committed txns' updates for start to renew; commitReady
	// fills it.
	free []*chase.Update

	// userMu serializes chase.User calls: implementations (the simulated
	// users included) are not required to be goroutine-safe.
	userMu sync.Mutex

	// mu guards m, committedUpTo and byPark where another goroutine
	// may touch them: the parallel scheduler's read-phase polls park
	// txns, and Metrics may be called during a run. Metrics a worker
	// accumulates arrive as a delta (the m parameters below); the
	// goroutine that called Run passes &m itself where no read phase
	// runs.
	mu            sync.Mutex
	m             Metrics
	committedUpTo int            // txns[:committedUpTo] have committed
	byPark        map[int64]*Txn // inbox entry ID -> parked txn

	started time.Time
	syncs0  int64
}

// init applies the Config defaults and builds the chase engine with the
// read observer installed.
func (c *txnCore) init(store storage.Backend, set *tgd.Set, cfg Config) {
	if cfg.Tracker == nil {
		cfg.Tracker = Coarse{}
	}
	if cfg.MaxStepsPerUpdate == 0 {
		cfg.MaxStepsPerUpdate = 100000
	}
	if cfg.MaxIdleRounds == 0 {
		cfg.MaxIdleRounds = 10000
	}
	c.store, c.cfg = store, cfg
	c.engine = chase.NewEngine(store, set)
	c.engine.MaxStepsPerAttempt = cfg.MaxStepsPerUpdate
	c.engine.SetReadObserver(c.onRead)
}

// Txns returns the scheduler's transactions (after Run started).
func (c *txnCore) Txns() []*Txn { return c.txns }

// Metrics returns the metrics collected so far.
func (c *txnCore) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// onRead is the chase engine's read observer: it forwards each stored
// read to the tracker for dependency computation (§5.1: dependencies
// are determined when the read is issued). It runs in the half that
// performed the read, so a txn's dependency set is only ever written by
// the goroutine stepping it and only ever read by conflict processing,
// outside the read phase. Flag mode never cascades, so it skips
// dependency tracking.
func (c *txnCore) onRead(u *chase.Update, q query.ReadQuery) {
	if c.cfg.Mode == ModeFlag || u.Number < 1 || u.Number > len(c.txns) {
		return
	}
	if t := c.txns[u.Number-1]; t != nil {
		c.cfg.Tracker.OnRead(c.store, t, q)
	}
}

// begin starts the run clock and submits the workload: ops[i] becomes
// txn number i+1, with sc as its conflict scratch (nil when the
// stepping goroutine sets it per step). No txn has an update yet.
func (c *txnCore) begin(ops []chase.Op, sc *stepScratch) {
	c.started = time.Now()
	c.syncs0 = c.store.SyncCount()
	c.acks.init(c.cfg.Trace)
	c.ops = ops
	recs := make([]Txn, len(ops))
	c.txns = make([]*Txn, len(ops))
	for i := range recs {
		recs[i] = Txn{Number: i + 1, sc: sc}
		c.txns[i] = &recs[i]
		c.cfg.Trace.Note(i+1, "submit")
	}
	c.m.Submitted = len(ops)
	if c.cfg.Inbox != nil {
		c.byPark = make(map[int64]*Txn)
	}
}

// start returns a txn's update. At the txn's first step it gives it
// one, extending the live window: a committed txn's update from the
// free list, renewed, or a new one. It runs where top may be written
// (see top).
func (c *txnCore) start(t *Txn) *chase.Update {
	if t.Upd != nil {
		return t.Upd
	}
	op := c.ops[t.Number-1]
	var u *chase.Update
	if n := len(c.free); n > 0 {
		u = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		u.Renew(t.Number, op)
	} else {
		u = chase.NewUpdate(t.Number, op)
	}
	u.NoTrace = true
	t.Upd = u
	c.top = max(c.top, t.Number)
	return u
}

// live returns the live window (see top).
func (c *txnCore) live() []*Txn { return c.txns[c.committedUpTo:c.top] }

// loop runs commit drains and rounds until every txn committed or the
// run fails: round gives the unfinished txns their opportunities and
// reports whether any made progress.
func (c *txnCore) loop(round func() (bool, error)) error {
	idle := 0
	for {
		if _, err := c.commitReady(); err != nil {
			return err
		}
		if c.committedUpTo == len(c.txns) {
			return nil
		}
		progressed, err := round()
		if err != nil {
			return err
		}
		if !progressed && len(c.byPark) > 0 {
			// Parked updates wait on external answers or policy
			// deadlines, not on scheduler rounds: advance the inbox
			// clock, execute what came due, and pace the wait. The idle
			// limit still applies, bounding a silent inbox with no
			// deadline policy.
			if progressed, err = c.inboxIdle(); err != nil {
				return err
			}
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		if idle >= c.cfg.MaxIdleRounds {
			return fmt.Errorf("cc: no progress after %d idle rounds (users absent?)", idle)
		}
	}
}

// end settles the commit pipeline — nothing is acknowledged, Run
// included, until its covering sync landed — and completes the run's
// metrics. runErr is the run's own failure; a failed sync is reported
// when there is none.
func (c *txnCore) end(runErr error) (Metrics, error) {
	if err := c.acks.wait(); err != nil && runErr == nil {
		runErr = err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.CommitAckP50, c.m.CommitAckP99 = c.acks.percentiles()
	c.m.WALSyncs = int(c.store.SyncCount() - c.syncs0)
	c.m.Runs = c.m.Submitted + c.m.Aborts
	c.m.WallTime = time.Since(c.started)
	return c.m, runErr
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
func (c *txnCore) commitReady() (int, error) {
	batch := c.txns[c.committedUpTo:]
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
	ack, err := c.store.CommitBatchAsync(numbers)
	if err != nil {
		return 0, fmt.Errorf("cc: commit of updates %d..%d: %w",
			numbers[0], numbers[len(numbers)-1], err)
	}
	if c.cfg.Trace.Enabled() {
		for _, n := range numbers {
			c.cfg.Trace.NoteDetail(n, "commit", fmt.Sprintf("batch_size=%d", len(numbers)))
		}
	}
	c.acks.track(ackStart, ack, numbers)
	fr := 0
	for _, t := range batch {
		t.committed = true
		fr += t.Upd.Stats.FrontierRequests
		// Released stored queries can no longer cause conflicts, and
		// the update leaves the window for the next txn's start.
		t.Upd.ReleaseReads()
		c.free = append(c.free, t.Upd)
		t.Upd = nil
	}
	forgetCommitted(c.cfg.User, batch)
	obsCommitBatches.Inc()
	obsUpdatesCommitted.Add(int64(len(batch)))
	obsCommitBatchSize.Observe(int64(len(batch)))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.FrontierRequests += fr
	c.m.CommitBatches++
	c.m.MaxCommitBatch = max(c.m.MaxCommitBatch, len(batch))
	for _, t := range batch {
		c.resolveEntryLocked(t)
	}
	c.committedUpTo += len(batch)
	return len(batch), nil
}

// pollUser offers a blocked txn one live frontier decision
// (Engine.DecideOne), reporting whether it applied one. Decide calls
// are serialized across goroutines and counted into m with the applied
// operation. The parallel scheduler calls it in the read phase
// (frontier operations only plan writes).
func (c *txnCore) pollUser(t *Txn, m *Metrics) (bool, error) {
	if c.cfg.User == nil {
		return false, nil
	}
	u := t.Upd
	ok, err := c.engine.DecideOne(u, func(g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool, error) {
		c.userMu.Lock()
		defer c.userMu.Unlock()
		m.UserPolls++
		obsUserPolls.Inc()
		d, ok := c.cfg.User.Decide(u, g, opts, ctx)
		return d, ok, nil
	})
	if err != nil {
		return false, fmt.Errorf("cc: update %d frontier op: %w", u.Number, err)
	}
	if ok {
		m.FrontierOps++
	}
	return ok, nil
}

// errEntryGone reports a parked txn whose inbox entry was aborted out
// from under it; the scheduler cancels the txn outside the read phase.
var errEntryGone = errors.New("cc: inbox entry aborted")

// inboxPoll is a blocked txn's scheduling opportunity in inbox mode:
// park on first block, then replay recorded answers as they arrive
// (inbox.Replay) — never a live user poll, so waiting costs zero
// Decide calls — and re-ask when the entry no longer shows the
// question the update blocks on. It reports whether it parked the txn
// or applied an answer, which counts into m. The parallel scheduler
// calls it in the read phase.
func (c *txnCore) inboxPoll(t *Txn, m *Metrics) (bool, error) {
	if t.park == nil {
		q, ok := inbox.Ask(c.engine, t.Upd)
		if !ok {
			return false, nil
		}
		q.Policy = c.cfg.InboxPolicy
		id := c.cfg.Inbox.Park(q)
		c.mu.Lock()
		t.park = &parkState{id: id, steps: t.Upd.Stats.Steps}
		c.byPark[id] = t
		c.mu.Unlock()
		obsParked.Inc()
		if c.cfg.Trace.Enabled() {
			c.cfg.Trace.NoteDetail(t.Number, "park", fmt.Sprintf("entry=%d", id))
		}
		return true, nil
	}
	p := t.park
	e, ok := c.cfg.Inbox.Get(p.id)
	if !ok {
		return false, errEntryGone
	}
	p.used = append(p.used, make([]bool, len(e.Answers)-len(p.used))...)
	p.offered, p.steps = len(e.Answers), t.Upd.Stats.Steps
	applied, err := inbox.Replay(c.engine, t.Upd, e.Answers, p.used)
	if err != nil {
		return false, fmt.Errorf("cc: update %d inbox answer: %w", t.Number, err)
	}
	if !applied {
		reaskIfStale(c.engine, c.cfg.Inbox, t.Upd, &e)
		return false, nil
	}
	m.FrontierOps++
	obsResumed.Inc()
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.NoteDetail(t.Number, "answer", fmt.Sprintf("entry=%d", e.ID))
		c.cfg.Trace.Note(t.Number, "resume")
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
func (c *txnCore) cancel(t *Txn) error {
	if t.committed {
		return fmt.Errorf("cc: cancel of committed update %d", t.Number)
	}
	if t.Upd.State() != chase.StateTerminated {
		c.store.Abort(t.Number)
		t.Upd.Cancel()
		t.Upd.ReleaseReads()
		clear(t.deps)
		t.cancelled = true
	}
	c.mu.Lock()
	c.dropEntryLocked(t)
	c.m.Cancelled++
	c.mu.Unlock()
	obsCancelled.Inc()
	c.cfg.Trace.Note(t.Number, "cancel")
	return nil
}

// processWrites is Algorithm 4's conflict processing of one step's
// writes, for both schedulers, over the live window: direct detection
// against the stored reads of the updates numbered above the writer,
// then the abort wave — dependency cascade, rollbacks through rollback,
// and abort-side drift rechecks. Counters accumulate into m; the checks
// run on sc. It must run where the writes land, before any other engine
// call, with no read half in flight. Conflicts only abort updates
// numbered above the writer; an abort-side drift check may still
// restart the writer itself.
func (c *txnCore) processWrites(writes []storage.WriteRec, m *Metrics, sc *stepScratch, rollback func(*Txn) error) error {
	if len(writes) == 0 {
		return nil
	}
	var checkStart time.Time
	if c.cfg.Trace.Enabled() {
		checkStart = time.Now()
	}
	live := c.live()
	direct := collectDirect(c.store, &c.cfg, live, writes, m, sc)
	c.cfg.Trace.Span(writes[0].Writer, "conflict_check", checkStart)
	return executeAbortWave(c.store, &c.cfg, live, direct, m, sc, rollback)
}

// rollback is the abort wave's rollback of one victim: rollbackTxn's
// storage-level abort and restart, then the victim's inbox entry goes —
// a parked victim's question is void, its attempt restarts from
// scratch. Aborts count into m.
func (c *txnCore) rollback(t *Txn, m *Metrics) error {
	if err := rollbackTxn(c.store, &c.cfg, t, m); err != nil {
		return err
	}
	c.mu.Lock()
	c.dropEntryLocked(t)
	c.mu.Unlock()
	return nil
}

// resolveEntryLocked removes a finished txn's inbox entry. Callers hold
// mu.
func (c *txnCore) resolveEntryLocked(t *Txn) {
	if t.park != nil {
		c.cfg.Inbox.Resolve(t.park.id)
		delete(c.byPark, t.park.id)
		t.park = nil
	}
}

// dropEntryLocked aborts the inbox entry of a txn that restarted or was
// cancelled: its question is void. Callers hold mu.
func (c *txnCore) dropEntryLocked(t *Txn) {
	if t.park != nil {
		c.cfg.Inbox.Abort(t.park.id)
		delete(c.byPark, t.park.id)
		t.park = nil
	}
}

// add merges a delta of the counters callers accumulate outside mu.
func (m *Metrics) add(d Metrics) {
	m.Aborts += d.Aborts
	m.DirectAbortRequests += d.DirectAbortRequests
	m.CascadingAbortRequests += d.CascadingAbortRequests
	m.RemovalAbortRequests += d.RemovalAbortRequests
	m.Flagged += d.Flagged
	m.Steps += d.Steps
	m.Writes += d.Writes
	m.FrontierRequests += d.FrontierRequests
	m.FrontierOps += d.FrontierOps
	m.UserPolls += d.UserPolls
}
