package cc

import (
	"fmt"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/obs"
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
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobinStep:
		return "round-robin-step"
	case PolicyRoundRobinStratum:
		return "round-robin-stratum"
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

// Config parameterizes a scheduler run. It holds no bound on one
// attempt's chase steps: the chase engine enforces that one
// (chase.Engine.MaxStepsPerAttempt, set by chase.NewEngine).
type Config struct {
	// Tracker computes cascading aborts; defaults to Coarse.
	Tracker Tracker
	// Policy defaults to PolicyRoundRobinStep.
	Policy Policy
	// Mode defaults to ModePrevent.
	Mode Mode
	// User supplies frontier operations.
	User chase.User
	// MaxIdleRounds bounds consecutive scheduler rounds without
	// progress before giving up on absent users (0 = 10000).
	MaxIdleRounds int
	// MaxAbortsPerUpdate bounds restarts of one update (0 = unlimited);
	// exceeding it is reported as an error.
	MaxAbortsPerUpdate int
	// Workers is the round width: a round gives at most this many
	// eligible updates, the lowest-numbered, one opportunity each. Zero
	// serves every eligible update, the paper's round (Algorithm 3).
	// Everything runs on the goroutine that called Run at any width.
	// experiments.RunMode alone reads zero differently: as its serial
	// reference execution, outside cc.
	Workers int
	// Inbox switches the scheduler from busy-repolling blocked updates
	// to parking them: a blocked update files its question in the box
	// once, and no user is polled on its behalf until an answer is
	// recorded (by an asynchronous answerer, a curator, or a deadline
	// policy the scheduler's idle rounds run). Nil keeps the legacy
	// repoll behaviour, whose per-wait poll counts simuser.Latency
	// relies on.
	Inbox *inbox.Box
	// InboxPolicy is stamped on every entry parked in inbox mode.
	InboxPolicy inbox.Policy
	// Trace, when non-nil, records every update's lifecycle — submit,
	// chase steps, conflict checks, park/answer/resume, commit, ack —
	// as timestamped events (the -trace CLI flag). Nil disables
	// tracing at the cost of one branch per site.
	Trace *obs.Tracer
}

// Validate rejects a configuration no scheduler runs as written: a
// negative limit or worker count, or a Policy or Mode outside the
// declared constants. Scheduler.Run and core.Repository.RunConcurrent
// call it before any update is numbered or any write is made.
func (c Config) Validate() error {
	switch {
	case c.MaxIdleRounds < 0:
		return fmt.Errorf("cc: negative MaxIdleRounds %d", c.MaxIdleRounds)
	case c.MaxAbortsPerUpdate < 0:
		return fmt.Errorf("cc: negative MaxAbortsPerUpdate %d", c.MaxAbortsPerUpdate)
	case c.Workers < 0:
		return fmt.Errorf("cc: negative Workers %d", c.Workers)
	case c.Policy > PolicyRoundRobinStratum:
		return fmt.Errorf("cc: unknown %s", c.Policy)
	case c.Mode > ModeFlag:
		return fmt.Errorf("cc: unknown mode(%d)", uint8(c.Mode))
	}
	return nil
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
	// but the run waits for durability once, at its end, so under the
	// default sync-always policy one covering fsync lands them all:
	// WALSyncs is at most 1 plus the segment rotations and inbox
	// control appends, which sync on their own. Zero on in-memory
	// stores and under a no-sync log policy (the appends happen but the
	// fsyncs are the OS's).
	WALSyncs int
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

// Run executes the workload: ops[i] becomes update number i+1. It
// returns the collected metrics; the error reports stalls (absent
// users), step-limit or abort-limit overruns, or storage failures —
// including a commit batch whose log sync failed, which is only
// surfaced here because acknowledgment is deferred: on a durable store
// the run appends every commit batch without waiting and, before it
// returns, waits once on the last batch's ack, whose covering sync
// makes the whole run durable on the calling goroutine. A run starts
// no goroutine.
func (s *Scheduler) Run(ops []chase.Op) (Metrics, error) {
	if err := s.cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	s.begin(ops)
	return s.end(s.loop())
}

// round performs one scheduler round: the lowest-numbered eligible
// txns, at most Config.Workers of them (all when it is zero), each get
// one scheduling opportunity — a chase step, a whole stratum, or a
// frontier-operation poll. The round walks the live window, then
// admits txns top+1, top+2, … in number order while the width allows:
// a txn that has not started is always eligible, and its first
// opportunity starts it. It reports whether any txn made progress.
func (s *Scheduler) round() (bool, error) {
	progressed, served := false, 0
	// No opportunity takes a txn out of the window: only commitReady
	// does. So when the walk reaches its end, the next txn is admitted
	// there.
	for i := 0; i < len(s.window) || s.top() < len(s.ops); i++ {
		if i == len(s.window) {
			s.start()
		}
		t := s.window[i]
		if !s.eligible(t) {
			continue
		}
		p, err := s.schedule(t)
		if err != nil {
			return progressed, err
		}
		progressed = progressed || p
		if served++; served == s.cfg.Workers {
			break
		}
	}
	return progressed, nil
}

// eligible reports whether a started txn takes an opportunity in a
// round: it is ready or awaits a user. A txn parked in the inbox awaits
// an answer instead, and is eligible only when a poll can move it
// (parkState.pollable).
func (s *Scheduler) eligible(t *Txn) bool {
	switch t.Upd.State() {
	case chase.StateReady:
		return true
	case chase.StateAwaitingUser:
		return t.park == nil || t.park.pollable(s.cfg.Inbox, t.Upd)
	default:
		return false
	}
}

// schedule gives one txn its opportunity: a blocked txn is polled live,
// or in inbox mode parks / consumes its recorded answers instead.
func (s *Scheduler) schedule(t *Txn) (bool, error) {
	switch t.Upd.State() {
	case chase.StateReady:
		return true, s.runSteps(t)
	case chase.StateAwaitingUser:
		if s.cfg.Inbox == nil {
			return s.pollUser(t)
		}
		ok, err := s.inboxPoll(t)
		if err == errEntryGone {
			return true, s.cancel(t)
		}
		return ok, err
	default:
		return false, nil
	}
}

// runSteps executes one chase step (step policy) or a full
// deterministic stratum (stratum policy), then applies
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
		if err := s.processWrites(res.Writes); err != nil {
			return err
		}
		if s.cfg.Policy == PolicyRoundRobinStep || res.State != chase.StateReady {
			return nil
		}
	}
}
