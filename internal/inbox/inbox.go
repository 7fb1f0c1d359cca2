// Package inbox implements the durable decision inbox: pending
// frontier decisions as first-class, addressable objects. When a chase
// blocks on a frontier group and its user has no answer, the update
// parks and the open question becomes an inbox Entry a curator can
// list, claim, and answer later — possibly after a process restart
// (the durability is the wal package's park/answer/resume records; the
// Box here is the in-memory index both the repository and the
// scheduler share). Per-entry policies cover the curator who never
// answers: a deadline that auto-answers through a fallback user or
// aborts the parked update, and periodic priority escalation (the
// selfish-curator mitigation of the related mechanism-design work).
//
// Time is a logical tick counter advanced by the owner (a cc
// scheduler's idle rounds, or explicit Repository.InboxTick calls), so tests
// and deterministic replays control it exactly; wall-clock time is
// recorded alongside purely for reporting (time-to-resume metrics).
package inbox

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/obs"
)

// Status is an entry's lifecycle state.
type Status uint8

const (
	// Pending means the question awaits a curator.
	Pending Status = iota
	// Claimed means a curator took the question (still unanswered).
	Claimed
	// Answered means an answer was recorded and the parked update is
	// being resumed; if the resumed chase blocks again the entry
	// returns to Pending with a fresh question.
	Answered
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Claimed:
		return "claimed"
	case Answered:
		return "answered"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// DeadlineAction selects what happens when an entry's answer deadline
// expires.
type DeadlineAction uint8

const (
	// DeadlineNone lets the entry wait indefinitely (escalation, if
	// configured, still raises its priority).
	DeadlineNone DeadlineAction = iota
	// DeadlineAutoAnswer answers the question through the fallback
	// user — graceful degradation when curators go silent.
	DeadlineAutoAnswer
	// DeadlineAbort cancels the parked update entirely.
	DeadlineAbort
)

// Policy is a per-entry timeout/escalation policy, in ticks.
type Policy struct {
	// Deadline is the number of ticks an entry may wait unanswered
	// before OnDeadline fires (0 = no deadline).
	Deadline int64
	// OnDeadline is the action taken when the deadline expires.
	OnDeadline DeadlineAction
	// EscalateEvery bumps the entry's priority by one every this many
	// ticks spent waiting (0 = no escalation).
	EscalateEvery int64
}

// Answer is one recorded frontier answer: the canonical decision
// context it addressed and the index into that context's deterministic
// option enumeration.
type Answer struct {
	Context string
	Option  int
}

// Entry is one parked decision: the question a curator sees, the
// parked update's identity, and the answer history.
type Entry struct {
	// ID addresses the entry; durable deployments use the WAL park ID.
	ID int64
	// Update is the parked update's number (scheduler-scoped).
	Update int
	// Op is the parked update's initial operation, replayed on resume.
	Op chase.Op
	// Question describes the open frontier group; Options are the
	// renderings of its enumerable decisions, OptionKinds their kinds,
	// Context the canonical decision context an answer is recorded
	// against, Positive the group's polarity, and FrontierOps the
	// update's frontier-operation count when it blocked (the decision
	// ordinal deterministic answerers hash on).
	Question    string
	Options     []string
	OptionKinds []chase.DecisionKind
	Context     string
	Positive    bool
	FrontierOps int
	// Priority orders the inbox listing; escalation raises it.
	Priority int
	// Status, Claimant: lifecycle.
	Status   Status
	Claimant string
	// ParkedAt is the tick the entry (re-)entered Pending; ParkedWall
	// the wall-clock time it was first parked (reporting only).
	ParkedAt   int64
	ParkedWall time.Time
	// Answers are the answers recorded so far, oldest first.
	Answers []Answer
	// Policy is the entry's timeout/escalation policy.
	Policy Policy

	lastEscalate int64
	deadlineDone bool
}

// DueKind classifies what Tick found due.
type DueKind uint8

const (
	// DueAutoAnswer means the entry's deadline expired under
	// DeadlineAutoAnswer: the owner answers it via the fallback user.
	DueAutoAnswer DueKind = iota
	// DueAbort means the deadline expired under DeadlineAbort: the
	// owner cancels the parked update.
	DueAbort
	// DueEscalate reports a priority bump (already applied).
	DueEscalate
)

// Due is one policy action Tick surfaced for the owner to execute.
type Due struct {
	ID   int64
	Kind DueKind
}

// Box is the shared in-memory decision inbox. All methods are safe for
// concurrent use.
type Box struct {
	mu      sync.Mutex
	entries map[int64]*Entry
	nextID  int64
	now     int64

	parked    int64
	answered  int64
	resolved  int64
	aborted   int64
	escalated int64
	resume    *obs.Histogram
}

// NewBox returns an empty inbox.
func NewBox() *Box {
	return &Box{
		entries: make(map[int64]*Entry),
		nextID:  1,
		resume:  obs.NewLatencyHistogram(),
	}
}

// Park files a new pending entry and returns its ID. A zero e.ID mints
// the next local ID; a positive one (the WAL park ID) is kept, so
// durable and in-memory IDs coincide.
func (b *Box) Park(e Entry) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.ID <= 0 {
		e.ID = b.nextID
	}
	if e.ID >= b.nextID {
		b.nextID = e.ID + 1
	}
	e.Status = Pending
	e.Claimant = ""
	e.ParkedAt = b.now
	if e.ParkedWall.IsZero() {
		e.ParkedWall = time.Now()
	}
	e.lastEscalate = b.now
	stored := e
	b.entries[e.ID] = &stored
	b.parked++
	obsParked.Inc()
	return e.ID
}

// Get returns a copy of an entry.
func (b *Box) Get(id int64) (Entry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// List returns copies of all entries, highest priority first (ties by
// ascending ID — oldest first).
func (b *Box) List() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Entry, 0, len(b.entries))
	for _, e := range b.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of live entries.
func (b *Box) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Claim marks a pending entry as taken by a curator.
func (b *Box) Claim(id int64, who string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return fmt.Errorf("inbox: no entry %d", id)
	}
	if e.Status == Answered {
		return fmt.Errorf("inbox: entry %d is already answered", id)
	}
	e.Status = Claimed
	e.Claimant = who
	return nil
}

// Answer records one answer on a pending or claimed entry. The caller
// chooses the option index against the entry's current Options
// enumeration; recording it against the canonical Context is what lets
// the answer re-resolve after restarts.
func (b *Box) Answer(id int64, a Answer) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return fmt.Errorf("inbox: no entry %d", id)
	}
	if e.Status == Answered {
		return fmt.Errorf("inbox: entry %d is already answered and resuming", id)
	}
	e.Status = Answered
	e.Answers = append(e.Answers, a)
	b.answered++
	obsAnswered.Inc()
	return nil
}

// Record appends an answer a live user gave while the entry's update
// was being resumed to its answer history. The status is the resuming
// owner's to settle (Requeue or Resolve), so Record changes nothing
// else.
func (b *Box) Record(id int64, a Answer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[id]; ok {
		e.Answers = append(e.Answers, a)
	}
}

// Requeue returns an answered entry to Pending with a fresh question:
// the resumed chase consumed the answer(s) and blocked again. Only q's
// question fields (those Ask fills) are taken. The answer history is
// preserved — answers recorded concurrently with the requeue stay
// visible to the resuming consumer.
func (b *Box) Requeue(id int64, q Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok {
		return fmt.Errorf("inbox: no entry %d", id)
	}
	e.Status = Pending
	e.Claimant = ""
	e.Question = q.Question
	e.Options = q.Options
	e.OptionKinds = q.OptionKinds
	e.Context = q.Context
	e.Positive = q.Positive
	e.FrontierOps = q.FrontierOps
	e.ParkedAt = b.now
	e.deadlineDone = false
	return nil
}

// Resolve removes a completed entry (its update committed) and records
// its time-to-resume.
func (b *Box) Resolve(id int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[id]; ok {
		d := time.Since(e.ParkedWall)
		b.resume.ObserveDuration(d)
		obsResume.ObserveDuration(d)
		b.resolved++
		obsResolved.Inc()
		delete(b.entries, id)
	}
}

// Abort removes an entry whose update was cancelled.
func (b *Box) Abort(id int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.entries[id]; ok {
		b.aborted++
		obsAborted.Inc()
		delete(b.entries, id)
	}
}

// Tick advances logical time by n ticks and returns the policy actions
// now due, deterministically ordered by entry ID. Escalations are
// applied internally (priority bumps) and reported; deadline actions
// are reported once per pending spell for the owner to execute.
func (b *Box) Tick(n int64) []Due {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now += n
	var due []Due
	ids := make([]int64, 0, len(b.entries))
	for id := range b.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := b.entries[id]
		if e.Status == Answered {
			continue // resuming; policies apply to waiting questions
		}
		if ev := e.Policy.EscalateEvery; ev > 0 {
			for b.now-e.lastEscalate >= ev {
				e.lastEscalate += ev
				e.Priority++
				b.escalated++
				obsEscalated.Inc()
				due = append(due, Due{ID: id, Kind: DueEscalate})
			}
		}
		if d := e.Policy.Deadline; d > 0 && !e.deadlineDone && b.now-e.ParkedAt >= d {
			switch e.Policy.OnDeadline {
			case DeadlineAutoAnswer:
				e.deadlineDone = true
				due = append(due, Due{ID: id, Kind: DueAutoAnswer})
			case DeadlineAbort:
				e.deadlineDone = true
				due = append(due, Due{ID: id, Kind: DueAbort})
			}
		}
	}
	return due
}

// Now returns the current logical tick.
func (b *Box) Now() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// Counters reports lifetime counts: parked entries, recorded answers,
// resolved entries, aborted entries, and escalations.
func (b *Box) Counters() (parked, answered, resolved, aborted, escalated int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parked, b.answered, b.resolved, b.aborted, b.escalated
}

// ResumeHistogram returns the box's wall-clock park-to-resolve latency
// histogram (the bench's time-to-resume distribution). The returned
// histogram is live — it keeps absorbing resolutions — and bounded:
// unlike the raw-sample slice it replaced, memory does not grow with
// the number of resolved entries. Aggregate across boxes with
// obs.Histogram.Merge.
func (b *Box) ResumeHistogram() *obs.Histogram {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resume
}

// Ask renders the first answerable frontier group of a blocked update
// as an entry to park or requeue: the update's number and initial
// operation plus the question fields. It must run before the update's
// writes are rolled back (options and contexts read the update's own
// snapshot). ok is false when no open group has enumerable options —
// nothing a curator could answer.
func Ask(e *chase.Engine, u *chase.Update) (Entry, bool) {
	for _, g := range u.Groups() {
		opts := e.Options(u, g)
		if len(opts) == 0 {
			continue
		}
		q := Entry{
			Update:      u.Number,
			Op:          u.Initial,
			Question:    g.String(),
			Options:     make([]string, len(opts)),
			OptionKinds: make([]chase.DecisionKind, len(opts)),
			Context:     e.DecisionContext(u, g),
			Positive:    g.Positive,
			FrontierOps: u.Stats.FrontierOps,
		}
		for i, d := range opts {
			q.Options[i] = d.String()
			q.OptionKinds[i] = d.Kind
		}
		return q, true
	}
	return Entry{}, false
}

// Replay applies one recorded answer to a blocked update through
// chase.Engine.DecideOne and reports whether it applied one. It is the
// one replay rule of the decision inbox, shared by the repository's
// resume and the scheduler's inbox mode:
//
//   - each open group, in order, takes the first unused answer
//     recorded against its canonical decision context; the option
//     enumeration and the context are deterministic functions of
//     database content, so the (context, option index) pair
//     re-resolves exactly where it was given;
//   - an option index out of range of the group's current enumeration
//     means the instance changed under the answer: the answer counts
//     as used and stale, and the group tries its next matching answer;
//   - an answer whose context is not open stays unused, so it can
//     answer a later question without the curator being asked again.
//
// used[i] records whether answers[i] was consumed; used must be at
// least as long as answers.
func Replay(e *chase.Engine, u *chase.Update, answers []Answer, used []bool) (bool, error) {
	if !slices.Contains(used[:len(answers)], false) {
		return false, nil
	}
	return e.DecideOne(u, func(_ *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool, error) {
		for i, a := range answers {
			if used[i] || a.Context != ctx {
				continue
			}
			used[i] = true
			if a.Option >= 0 && a.Option < len(opts) {
				return opts[a.Option], true, nil
			}
		}
		return chase.Decision{}, false, nil
	})
}
