package cc

import (
	"fmt"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/obs"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// Txn is one update under concurrency control.
type Txn struct {
	// Upd is the underlying chase update; Upd.Number is the priority.
	Upd *chase.Update
	// Number duplicates the update's priority for convenience.
	Number int

	// deps are the lower-numbered uncommitted updates whose writes
	// influenced this txn's read answers (§5.1).
	deps map[int]bool
	// committed is set once the txn terminated and every lower-numbered
	// txn committed; committed txns can no longer abort and their
	// stored queries are released.
	committed bool
	// aborts counts how many times this txn has aborted.
	aborts int
	// sc is the scratch of the goroutine stepping the txn, set by the
	// scheduler before each step: the trackers' OnRead reaches that
	// goroutine's checker and scan buffer through it.
	sc *stepScratch
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
	t.deps[writer] = true
}

// Policy selects how the scheduler interleaves updates.
type Policy uint8

const (
	// PolicyRoundRobinStep interleaves chases at the level of
	// individual steps — the policy of the paper's experiments (§6).
	PolicyRoundRobinStep Policy = iota
	// PolicyRoundRobinStratum lets an update run a whole deterministic
	// stratum before the scheduler regains control (§4.1).
	PolicyRoundRobinStratum
	// PolicySerial runs updates one at a time in priority order — the
	// serial reference execution used to validate serializability.
	PolicySerial
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobinStep:
		return "round-robin-step"
	case PolicyRoundRobinStratum:
		return "round-robin-stratum"
	case PolicySerial:
		return "serial"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Mode selects what happens on detected interference (§3): strict
// prevention by aborts, or detection that flags and lets execution
// continue for later human correction.
type Mode uint8

const (
	// ModePrevent aborts on conflicts (the paper's main algorithm).
	ModePrevent Mode = iota
	// ModeFlag counts conflicts without aborting; the resulting state
	// may be non-serializable and is flagged for manual correction.
	ModeFlag
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeFlag {
		return "flag"
	}
	return "prevent"
}

// Config parameterizes a scheduler run.
type Config struct {
	// Tracker computes cascading aborts; defaults to Coarse.
	Tracker Tracker
	// Policy defaults to PolicyRoundRobinStep.
	Policy Policy
	// Mode defaults to ModePrevent.
	Mode Mode
	// User supplies frontier operations.
	User chase.User
	// MaxStepsPerUpdate bounds a single attempt's chase (0 = 100000).
	MaxStepsPerUpdate int
	// MaxIdleRounds bounds consecutive scheduler rounds without
	// progress before giving up on absent users (0 = 10000).
	MaxIdleRounds int
	// MaxAbortsPerUpdate bounds restarts of one update (0 = unlimited);
	// exceeding it is reported as an error.
	MaxAbortsPerUpdate int
	// Workers selects goroutine-level parallel execution. The shared
	// convention (core.Repository.RunConcurrent, experiments.RunMode,
	// the benches): Workers >= 1 drives the workload through
	// ParallelScheduler on that many worker goroutines, Workers == 0
	// keeps the cooperative single-goroutine execution. Only when
	// constructing a ParallelScheduler directly does 0 default to
	// GOMAXPROCS. The cooperative Scheduler itself ignores the field.
	Workers int
	// Inbox switches the schedulers from busy-repolling blocked updates
	// to parking them: a blocked update files its question in the box
	// once and leaves the dispatchable set until an answer is recorded
	// (by an asynchronous answerer, a curator, or a deadline policy).
	// Nil keeps the legacy repoll behaviour, whose per-wait poll counts
	// simuser.Latency relies on.
	Inbox *inbox.Box
	// InboxPolicy is stamped on every entry parked in inbox mode.
	InboxPolicy inbox.Policy
	// Trace, when non-nil, records every update's lifecycle — submit,
	// chase steps, conflict checks, park/answer/resume, commit, ack —
	// as timestamped events (the -trace CLI flag). Nil disables
	// tracing at the cost of one branch per site.
	Trace *obs.Tracer
	// Shards is the relation-partition count of the storage backend
	// the workload should run against (0 or 1 = one store). The
	// schedulers themselves are backend-agnostic — they drive whatever
	// Backend they were built over — so this knob is read by the
	// harnesses that construct the store from the config (workload
	// setup, experiments, the benches), keeping one configuration
	// struct across the stack.
	Shards int
}

// Metrics aggregates a run's outcome — the quantities of §6.
type Metrics struct {
	// Submitted is the number of updates in the workload.
	Submitted int
	// Runs is the number of update executions: Submitted + Aborts.
	Runs int
	// Aborts is the total number of aborts performed.
	Aborts int
	// DirectAbortRequests counts abort requests raised because a write
	// directly changed a stored read query's answer.
	DirectAbortRequests int
	// CascadingAbortRequests counts abort requests raised purely
	// through read dependencies — the metric of the figures' middle
	// panels. Requests against already-marked updates are counted, as
	// the paper notes updates are frequently marked multiple times
	// before the scheduler consolidates.
	CascadingAbortRequests int
	// RemovalAbortRequests counts abort requests raised by the
	// abort-side drift check: a rollback removed interference writes
	// that an earlier write-side verdict depended on, and the victim's
	// guarded violation-query answer no longer matches its read-time
	// state run forward over the surviving interference.
	RemovalAbortRequests int
	// Flagged counts conflicts observed in ModeFlag.
	Flagged int
	// Steps, Writes, FrontierRequests and FrontierOps aggregate chase
	// work across all executions.
	Steps            int
	Writes           int
	FrontierRequests int
	FrontierOps      int
	// UserPolls counts chase.User.Decide invocations. In legacy mode a
	// blocked update is repolled every scheduling round, so this grows
	// with wait time; in inbox mode parked updates are never polled —
	// the counter stays at the decisions actually taken (deadline
	// auto-answers included), which is the bounded-polls property the
	// inbox exists to provide.
	UserPolls int
	// Cancelled counts updates aborted for good by a DeadlineAbort
	// inbox policy (they commit empty, preserving commit order).
	Cancelled int
	// CommitBatches counts commit-frontier drains that committed at
	// least one update, and MaxCommitBatch the largest prefix drained
	// in one acquisition — both 1 per group commit, so CommitBatches
	// well below Submitted means the frontier is batching.
	CommitBatches  int
	MaxCommitBatch int
	// WALSyncs counts the log fsyncs that covered this run's commit
	// batches. Every commit-frontier drain is exactly one log append,
	// but the pipelined sync coalesces consecutive batches, so under
	// the default sync-always policy WALSyncs <= CommitBatches — and
	// strictly below it whenever commits outpace the disk, which is
	// the group commit and the sync pipeline amortizing fsync cost.
	// Zero on in-memory stores and under a no-sync log policy (the
	// appends happen but the fsyncs are the OS's).
	WALSyncs int
	// CommitAckP50 and CommitAckP99 are fixed-bucket-histogram
	// percentiles of commit-acknowledgment latency: the time from a
	// commit batch's frontier drain to its covering log sync landing.
	// The estimate is the upper bound of the bucket holding the
	// nearest-rank sample (at most 2x the true sample with the
	// doubling bounds). Zero when no batch needed a sync (in-memory
	// stores, no-sync logs).
	CommitAckP50 time.Duration
	CommitAckP99 time.Duration
	// WallTime is the total run time.
	WallTime time.Duration
}

// PerUpdateTime is the §6 normalization: total run time divided by the
// number of updates that actually ran (submitted + aborted reruns).
func (m Metrics) PerUpdateTime() time.Duration {
	if m.Runs == 0 {
		return 0
	}
	return m.WallTime / time.Duration(m.Runs)
}

// Scheduler drives a workload of updates to termination under
// optimistic concurrency control (Algorithms 3 and 4).
type Scheduler struct {
	store   storage.Backend
	engine  *chase.Engine
	cfg     Config
	txns    []*Txn
	m       Metrics
	scratch stepScratch
	acks    ackTracker

	// Inbox-mode bookkeeping, indexed like txns: the entry a blocked txn
	// parked under (0 = not parked) and how many of its recorded answers
	// were consumed.
	parkID  []int64
	applied []int
}

// NewScheduler builds a scheduler over a store and mapping set.
func NewScheduler(store storage.Backend, set *tgd.Set, cfg Config) *Scheduler {
	if cfg.Tracker == nil {
		cfg.Tracker = Coarse{}
	}
	if cfg.MaxStepsPerUpdate == 0 {
		cfg.MaxStepsPerUpdate = 100000
	}
	if cfg.MaxIdleRounds == 0 {
		cfg.MaxIdleRounds = 10000
	}
	s := &Scheduler{store: store, cfg: cfg}
	s.engine = chase.NewEngine(store, set)
	s.engine.MaxStepsPerAttempt = cfg.MaxStepsPerUpdate
	s.engine.SetReadObserver(s.onRead)
	if h, ok := cfg.Tracker.(*Hybrid); ok && h.Attempts == nil {
		h.Attempts = func(number int) int {
			if t := s.txn(number); t != nil {
				return t.Upd.Attempt
			}
			return 1
		}
	}
	return s
}

// Txns returns the scheduler's transactions (after Run started).
func (s *Scheduler) Txns() []*Txn { return s.txns }

// Metrics returns the metrics collected so far.
func (s *Scheduler) Metrics() Metrics { return s.m }

func (s *Scheduler) txn(number int) *Txn {
	if number < 1 || number > len(s.txns) {
		return nil
	}
	return s.txns[number-1]
}

// onRead is the chase engine's read observer: it forwards each stored
// read to the tracker for dependency computation (§5.1: dependencies
// are determined when the read is issued). Flag mode never cascades,
// so it skips dependency tracking entirely.
func (s *Scheduler) onRead(u *chase.Update, q query.ReadQuery) {
	if s.cfg.Mode == ModeFlag {
		return
	}
	if t := s.txn(u.Number); t != nil {
		s.cfg.Tracker.OnRead(s.store, t, q)
	}
}

// Run executes the workload: ops[i] becomes update number i+1. It
// returns the collected metrics; the error reports stalls (absent
// users), step-limit overruns, or storage failures — including a
// commit batch whose log sync failed, which is only surfaced here
// because acknowledgment is pipelined (the run keeps chasing while
// syncs are in flight and settles them before returning).
func (s *Scheduler) Run(ops []chase.Op) (Metrics, error) {
	start := time.Now()
	defer func() { s.m.WallTime = time.Since(start) }()
	syncs0 := s.store.SyncCount()

	s.acks.init(s.cfg.Trace)
	s.txns = make([]*Txn, len(ops))
	for i, op := range ops {
		u := chase.NewUpdate(i+1, op)
		s.txns[i] = &Txn{Upd: u, Number: i + 1, deps: make(map[int]bool), sc: &s.scratch}
		s.cfg.Trace.Note(i+1, "submit")
	}
	s.m.Submitted = len(ops)
	s.parkID = make([]int64, len(ops))
	s.applied = make([]int, len(ops))

	idle := 0
	var runErr error
	for {
		done, err := s.commitReady()
		if err != nil {
			runErr = err
			break
		}
		if done {
			break
		}
		progressed, err := s.round()
		if err != nil {
			runErr = err
			break
		}
		if progressed {
			idle = 0
			continue
		}
		if s.cfg.Inbox != nil && s.anyParked() {
			// Parked updates wait on external answers or policy
			// deadlines, not on scheduler rounds: advance the inbox
			// clock, execute what came due, and pace the wait. The idle
			// limit still applies, bounding a silent inbox with no
			// deadline policy.
			acted, err := s.inboxIdle()
			if err != nil {
				runErr = err
				break
			}
			if acted {
				idle = 0
				continue
			}
		}
		idle++
		if idle >= s.cfg.MaxIdleRounds {
			runErr = fmt.Errorf("cc: no progress after %d idle rounds (users absent?)", idle)
			break
		}
	}
	// Settle the commit pipeline: nothing is acknowledged until its
	// covering sync landed.
	if err := s.acks.wait(); err != nil && runErr == nil {
		runErr = err
	}
	s.m.CommitAckP50, s.m.CommitAckP99 = s.acks.percentiles()
	s.m.WALSyncs = int(s.store.SyncCount() - syncs0)
	if runErr != nil {
		return s.m, runErr
	}
	s.m.Runs = s.m.Submitted + s.m.Aborts
	return s.m, nil
}

// commitReady advances the commit frontier — updates commit in
// priority order once terminated (§5: a terminated update can still be
// aborted until every lower-numbered update has terminated) — and
// reports whether every txn has committed. Like the parallel
// scheduler's frontier, it drains the whole terminated prefix through
// one storage group commit per call — one log append on a durable
// store, whose fsync is pipelined: the scheduler keeps running while
// the sync is in flight and the ack tracker settles it before Run
// returns, so back-to-back frontier drains can share one fsync.
func (s *Scheduler) commitReady() (bool, error) {
	var batch []*Txn
	all := true
	for _, t := range s.txns {
		if t.committed {
			continue
		}
		if t.Upd.State() != chase.StateTerminated {
			all = false
			break
		}
		batch = append(batch, t)
	}
	if len(batch) > 0 {
		numbers := make([]int, len(batch))
		for i, t := range batch {
			numbers[i] = t.Number
		}
		ackStart := time.Now()
		ack, err := s.store.CommitBatchAsync(numbers)
		if err != nil {
			return false, fmt.Errorf("cc: commit of updates %d..%d: %w",
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
			// Released stored queries can no longer cause conflicts.
			t.Upd.ReleaseReads()
			if pid := s.parkID[t.Number-1]; pid != 0 {
				s.cfg.Inbox.Resolve(pid)
				s.parkID[t.Number-1] = 0
			}
		}
		forgetCommitted(s.cfg.User, batch)
		s.m.CommitBatches++
		obsCommitBatches.Inc()
		obsUpdatesCommitted.Add(int64(len(batch)))
		obsCommitBatchSize.Observe(int64(len(batch)))
		if len(batch) > s.m.MaxCommitBatch {
			s.m.MaxCommitBatch = len(batch)
		}
	}
	return all, nil
}

// round performs one scheduler round: under round-robin policies every
// txn gets one scheduling opportunity (a chase step, a whole stratum,
// or a frontier-operation poll); under the serial policy only the
// lowest unfinished txn runs. It reports whether any txn made
// progress.
func (s *Scheduler) round() (bool, error) {
	progressed := false
	for _, t := range s.txns {
		if t.committed || t.Upd.State() == chase.StateTerminated {
			continue
		}
		p, err := s.schedule(t)
		if err != nil {
			return progressed, err
		}
		progressed = progressed || p
		if s.cfg.Policy == PolicySerial {
			// Strictly one unfinished txn at a time.
			return progressed, nil
		}
	}
	return progressed, nil
}

// schedule gives one txn its opportunity.
func (s *Scheduler) schedule(t *Txn) (bool, error) {
	switch t.Upd.State() {
	case chase.StateReady:
		return true, s.runSteps(t)
	case chase.StateAwaitingUser:
		return s.pollUser(t)
	default:
		return false, nil
	}
}

// runSteps executes one chase step (step policy) or a full
// deterministic stratum (stratum and serial policies), then applies
// Algorithm 4's conflict processing to the writes performed.
func (s *Scheduler) runSteps(t *Txn) error {
	for {
		var stepStart time.Time
		if s.cfg.Trace.Enabled() {
			stepStart = time.Now()
		}
		res, err := s.engine.Step(t.Upd)
		if err != nil {
			return fmt.Errorf("cc: update %d: %w", t.Number, err)
		}
		s.m.Steps++
		s.m.Writes += len(res.Writes)
		obsSteps.Inc()
		obsWrites.Add(int64(len(res.Writes)))
		s.cfg.Trace.Span(t.Number, "step", stepStart)
		// Conflicts only ever abort higher-numbered txns than the
		// writer, so t itself is never caught in the wave it causes.
		if err := s.processWrites(res.Writes); err != nil {
			return err
		}
		if s.cfg.Policy == PolicyRoundRobinStep {
			return nil
		}
		if res.State != chase.StateReady {
			return nil
		}
	}
}

// pollUser offers one frontier decision opportunity to a blocked txn —
// or, in inbox mode, parks it / consumes its recorded answers instead
// of repolling.
func (s *Scheduler) pollUser(t *Txn) (bool, error) {
	if s.cfg.Inbox != nil {
		return s.inboxPoll(t)
	}
	if s.cfg.User == nil {
		return false, nil
	}
	ok, err := pollFrontier(s.engine, t.Upd,
		func(g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool) {
			s.m.UserPolls++
			obsUserPolls.Inc()
			return s.cfg.User.Decide(t.Upd, g, opts, ctx)
		})
	if ok {
		s.m.FrontierOps++
	}
	return ok, err
}

// inboxPoll is a blocked txn's scheduling opportunity in inbox mode:
// park on first block, then consume recorded answers as they arrive —
// never a live user poll, so waiting costs zero Decide calls.
func (s *Scheduler) inboxPoll(t *Txn) (bool, error) {
	i := t.Number - 1
	if s.parkID[i] == 0 {
		id, ok := parkEntry(s.engine, s.cfg.Inbox, t.Upd, s.cfg.InboxPolicy)
		if !ok {
			return false, nil
		}
		s.parkID[i] = id
		s.applied[i] = 0
		obsParked.Inc()
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.NoteDetail(t.Number, "park", fmt.Sprintf("entry=%d", id))
		}
		return true, nil
	}
	e, ok := s.cfg.Inbox.Get(s.parkID[i])
	if !ok {
		// The entry was aborted out from under the txn; cancel it.
		return true, s.cancelTxn(t)
	}
	applied, err := consumeAnswers(s.engine, t.Upd, e.Answers, &s.applied[i])
	if err != nil {
		return false, fmt.Errorf("cc: update %d inbox answer: %w", t.Number, err)
	}
	if applied {
		s.m.FrontierOps++
		obsResumed.Inc()
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.NoteDetail(t.Number, "answer", fmt.Sprintf("entry=%d", e.ID))
			s.cfg.Trace.Note(t.Number, "resume")
		}
		return true, nil
	}
	if t.Upd.State() == chase.StateAwaitingUser {
		reaskIfStale(s.engine, s.cfg.Inbox, t.Upd, e.ID, &e)
	}
	return false, nil
}

// anyParked reports whether any live txn is parked in the inbox.
func (s *Scheduler) anyParked() bool {
	for i, t := range s.txns {
		if s.parkID[i] != 0 && !t.committed {
			return true
		}
	}
	return false
}

// inboxIdle runs when a round made no progress and parked txns exist:
// it advances the inbox clock one tick, executes due policy actions
// (deadline auto-answers and aborts), and — when nothing was due —
// briefly sleeps to pace the wait for external answers. It reports
// whether a policy action made progress.
func (s *Scheduler) inboxIdle() (bool, error) {
	acted := false
	for _, d := range s.cfg.Inbox.Tick(1) {
		i := s.indexOfPark(d.ID)
		if i < 0 {
			continue
		}
		t := s.txns[i]
		switch d.Kind {
		case inbox.DueAutoAnswer:
			if s.cfg.User == nil || t.Upd.State() != chase.StateAwaitingUser {
				continue
			}
			ok, err := pollFrontier(s.engine, t.Upd,
				func(g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool) {
					s.m.UserPolls++
					obsUserPolls.Inc()
					return s.cfg.User.Decide(t.Upd, g, opts, ctx)
				})
			if err != nil {
				return acted, err
			}
			if ok {
				s.m.FrontierOps++
				acted = true
			}
		case inbox.DueAbort:
			if err := s.cancelTxn(t); err != nil {
				return acted, err
			}
			acted = true
		}
	}
	if !acted {
		time.Sleep(100 * time.Microsecond)
	}
	return acted, nil
}

// indexOfPark maps an inbox entry ID back to its txn index (-1 when
// the entry is not one of ours or already resolved).
func (s *Scheduler) indexOfPark(id int64) int {
	for i := range s.parkID {
		if s.parkID[i] == id {
			return i
		}
	}
	return -1
}

// cancelTxn aborts a parked update for good: its writes roll back, the
// update becomes an empty terminated commit (preserving commit order),
// and the inbox entry is dropped.
func (s *Scheduler) cancelTxn(t *Txn) error {
	if t.committed {
		return fmt.Errorf("cc: cancel of committed update %d", t.Number)
	}
	if t.Upd.State() != chase.StateTerminated {
		s.store.Abort(t.Number)
		t.Upd.Cancel()
	}
	if pid := s.parkID[t.Number-1]; pid != 0 {
		s.cfg.Inbox.Abort(pid)
		s.parkID[t.Number-1] = 0
	}
	s.m.Cancelled++
	obsCancelled.Inc()
	s.cfg.Trace.Note(t.Number, "cancel")
	return nil
}

// processWrites runs Algorithm 4's conflict processing on one step's
// writes: direct detection (collectDirect) followed by the abort wave
// — dependency cascade, rollbacks, and abort-side drift rechecks.
func (s *Scheduler) processWrites(writes []storage.WriteRec) error {
	var checkStart time.Time
	if s.cfg.Trace.Enabled() && len(writes) > 0 {
		checkStart = time.Now()
	}
	direct := collectDirect(s.store, &s.cfg, s.txns, writes, &s.m, &s.scratch)
	if s.cfg.Trace.Enabled() && len(writes) > 0 {
		s.cfg.Trace.Span(writes[0].Writer, "conflict_check", checkStart)
	}
	return executeAbortWave(s.store, &s.cfg, s.txns, direct, &s.m, &s.scratch, func(t *Txn) error {
		// A parked victim's question is void — its attempt restarts from
		// scratch — so the inbox entry goes with the rollback.
		if s.cfg.Inbox != nil {
			if pid := s.parkID[t.Number-1]; pid != 0 {
				s.cfg.Inbox.Abort(pid)
				s.parkID[t.Number-1] = 0
				s.applied[t.Number-1] = 0
			}
		}
		return rollbackTxn(s.store, &s.cfg, t, &s.m)
	})
}
