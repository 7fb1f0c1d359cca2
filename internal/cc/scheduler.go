package cc

import (
	"fmt"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/obs"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

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
// optimistic concurrency control (Algorithms 3 and 4) on one goroutine:
// it alternates commit-frontier drains with scheduling rounds that give
// every unfinished update one opportunity, in priority order.
type Scheduler struct {
	txnCore
	scratch stepScratch
}

// NewScheduler builds a scheduler over a store and mapping set.
func NewScheduler(store storage.Backend, set *tgd.Set, cfg Config) *Scheduler {
	s := &Scheduler{}
	s.init(store, set, cfg)
	return s
}

// Run executes the workload: ops[i] becomes update number i+1. It
// returns the collected metrics; the error reports stalls (absent
// users), step-limit overruns, or storage failures — including a
// commit batch whose log sync failed, which is only surfaced here
// because acknowledgment is pipelined (the run keeps chasing while
// syncs are in flight and settles them before returning).
func (s *Scheduler) Run(ops []chase.Op) (Metrics, error) {
	s.begin(ops, &s.scratch)
	return s.end(s.loop())
}

// loop runs drains and rounds until every txn committed or the run
// fails.
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

// schedule gives one txn its opportunity: a blocked txn is polled live,
// or in inbox mode parks / consumes its recorded answers instead.
func (s *Scheduler) schedule(t *Txn) (bool, error) {
	switch t.Upd.State() {
	case chase.StateReady:
		return true, s.runSteps(t)
	case chase.StateAwaitingUser:
		if s.cfg.Inbox == nil {
			return s.pollUser(t, &s.m)
		}
		ok, err := s.inboxPoll(t, &s.m)
		if err == errEntryGone {
			return true, s.cancel(t)
		}
		return ok, err
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

// inboxIdle runs when a round made no progress and parked txns exist:
// it advances the inbox clock one tick, executes due policy actions
// (deadline auto-answers and aborts), and — when nothing was due —
// briefly sleeps to pace the wait for external answers. It reports
// whether a policy action made progress.
func (s *Scheduler) inboxIdle() (bool, error) {
	acted := false
	for _, d := range s.cfg.Inbox.Tick(1) {
		t := s.byPark[d.ID]
		if t == nil {
			continue
		}
		switch d.Kind {
		case inbox.DueAutoAnswer:
			if t.Upd.State() != chase.StateAwaitingUser {
				continue
			}
			ok, err := s.pollUser(t, &s.m)
			if err != nil {
				return acted, err
			}
			acted = acted || ok
		case inbox.DueAbort:
			if err := s.cancel(t); err != nil {
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
		return s.rollback(t, &s.m)
	})
}
