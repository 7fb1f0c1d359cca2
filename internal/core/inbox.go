package core

import (
	"errors"
	"fmt"
	"sort"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/storage"
)

// This file is the repository half of the decision inbox: parking a
// blocked single-user update, resuming it when answers arrive, and the
// list/claim/answer API curators drive.
//
// A parked update keeps nothing in the store — its writes are rolled
// back at park time and only the initial operation plus the ordered
// answers are retained (durably, with a data directory). Resuming
// re-runs the chase from the initial operation under a fresh update
// number and consumes the recorded answers: the enumeration of
// frontier options and the canonical decision contexts are
// deterministic functions of database content, so each recorded
// (context, option) pair re-resolves exactly where it was given. The
// re-run also makes crash recovery self-healing: replaying a resumed
// update whose commit already landed finds a fully-chased instance,
// performs no writes, and terminates immediately.

// ErrParked matches (via errors.Is) the *ParkedError Apply returns
// when it parks an update in the decision inbox.
var ErrParked = errors.New("core: update parked awaiting a frontier answer")

// ParkedError reports that Apply parked the update: the chase blocked
// on a frontier question its user could not answer yet. The entry ID
// addresses the question in the inbox API. It matches both ErrParked
// and chase.ErrNoDecision under errors.Is (the latter for callers of
// the historical contract that only distinguish "did not complete").
type ParkedError struct {
	ID int64
}

// Error implements error.
func (e *ParkedError) Error() string {
	return fmt.Sprintf("core: update parked in the decision inbox as entry %d (answer it with AnswerInbox)", e.ID)
}

// Is makes errors.Is(err, ErrParked) and errors.Is(err,
// chase.ErrNoDecision) both true for parked updates.
func (e *ParkedError) Is(target error) bool {
	return target == ErrParked || target == chase.ErrNoDecision
}

// renderQuestion renders the first answerable frontier group of a
// blocked update as inbox-entry fields. It must run before the
// update's writes are rolled back (options and contexts read the
// update's own snapshot). ok is false when no group has options.
func (r *Repository) renderQuestion(u *chase.Update) (question string, options []string, kinds []chase.DecisionKind, ctx string, positive bool, ok bool) {
	for _, g := range u.Groups() {
		opts := r.engine.Options(u, g)
		if len(opts) == 0 {
			continue
		}
		options = make([]string, len(opts))
		kinds = make([]chase.DecisionKind, len(opts))
		for i, d := range opts {
			options[i] = d.String()
			kinds[i] = d.Kind
		}
		return g.String(), options, kinds, r.engine.DecisionContext(u, g), g.Positive, true
	}
	return "", nil, nil, "", false, false
}

// parkLocked files a blocked update in the inbox (durably first, so a
// crash between the two leaves at worst a WAL entry the next open
// re-parks). Callers hold r.mu and roll the update's writes back
// afterwards.
func (r *Repository) parkLocked(u *chase.Update, op chase.Op) (int64, error) {
	question, options, kinds, ctx, positive, ok := r.renderQuestion(u)
	if !ok {
		// Blocked with no enumerable options anywhere: nothing a curator
		// could answer; fail like the historical path.
		return 0, chase.ErrNoDecision
	}
	var id int64
	if r.wal != nil {
		var err error
		if id, err = r.wal.AppendPark(op); err != nil {
			return 0, fmt.Errorf("core: parking update %d: %w", u.Number, err)
		}
	}
	id = r.box.Park(inbox.Entry{
		ID:          id,
		Update:      u.Number,
		Op:          op,
		Question:    question,
		Options:     options,
		OptionKinds: kinds,
		Context:     ctx,
		Positive:    positive,
		FrontierOps: u.Stats.FrontierOps,
		Policy:      r.inboxPolicy,
	})
	return id, nil
}

// recoverParked re-parks every durably parked update found at open and
// immediately attempts a resume for each: entries whose recorded
// answers already complete the chase (a crash landed between the last
// answer and the resume record, or between the commit and the resume
// record) settle on the spot; the rest regenerate their question
// against the recovered instance and wait in the inbox. Runs during
// construction, before the repository is shared.
func (r *Repository) recoverParked() error {
	parked := r.wal.Parked()
	sort.Slice(parked, func(i, j int) bool { return parked[i].ID < parked[j].ID })
	for _, p := range parked {
		answers := make([]inbox.Answer, len(p.Answers))
		for i, a := range p.Answers {
			answers[i] = inbox.Answer{Context: a.Context, Option: a.Option}
		}
		r.box.Park(inbox.Entry{
			ID:      p.ID,
			Op:      p.Op,
			Answers: answers,
			Policy:  r.inboxPolicy,
		})
		if _, err := r.resumeLocked(p.ID, nil); err != nil {
			return fmt.Errorf("core: resuming parked update %d: %w", p.ID, err)
		}
	}
	return nil
}

// resumeLocked re-runs a parked update's chase, consuming its recorded
// answers; when they run out it consults user (nil = no one), durably
// recording any fresh answer. It returns resolved == true when the
// update terminated and committed (the entry leaves the inbox); false
// when it is still parked — the question was regenerated against the
// current instance and the entry waits for more answers. Callers hold
// r.mu.
func (r *Repository) resumeLocked(id int64, user chase.User) (bool, error) {
	e, ok := r.box.Get(id)
	if !ok {
		return false, fmt.Errorf("core: no inbox entry %d", id)
	}
	number := r.nextUpdate
	r.nextUpdate++
	if r.trace.Enabled() {
		if e.Update > 0 {
			// Fold the replay's fresh update number into the original
			// submission's timeline (recovered entries have no recorded
			// original number; their events stand alone).
			r.trace.Alias(number, e.Update)
		}
		r.trace.NoteDetail(number, "resume", fmt.Sprintf("entry=%d", id))
	}
	obsResumes.Inc()
	mark := r.store.NullMark()
	u := chase.NewUpdate(number, e.Op)
	consumed := make([]bool, len(e.Answers))

	park := func() (bool, error) {
		question, options, kinds, ctx, positive, ok := r.renderQuestion(u)
		r.store.Abort(number)
		u.Cancel() // gives the attempt's query context back
		r.store.RewindNulls(mark)
		if !ok {
			return false, chase.ErrNoDecision
		}
		if err := r.box.Requeue(id, question, options, kinds, ctx, positive, u.Stats.FrontierOps); err != nil {
			return false, err
		}
		if r.trace.Enabled() {
			r.trace.NoteDetail(number, "park", fmt.Sprintf("entry=%d requeued", id))
		}
		obsParked.Inc()
		return false, nil
	}
	fail := func(err error) (bool, error) {
		r.store.Abort(number)
		u.Cancel()
		r.store.RewindNulls(mark)
		return false, err
	}

	for {
		res, err := r.engine.Step(u)
		if err != nil {
			return fail(err)
		}
		for _, w := range res.Writes {
			if w.Op == storage.OpDelete && r.protected[w.Rel] {
				return fail(fmt.Errorf("%w: delete of %s from protected %s",
					ErrProtectedCascade, w.Rel, w.Rel))
			}
		}
		switch res.State {
		case chase.StateTerminated:
			r.trace.Note(number, "commit")
			ack, err := r.store.CommitBatchAsync([]int{number})
			if err != nil {
				r.store.Abort(number)
				return false, fmt.Errorf("core: durable commit of resumed update %d: %w", number, err)
			}
			if ack != nil {
				if err := ack(); err != nil {
					return false, fmt.Errorf("core: durable commit of resumed update %d: %w", number, err)
				}
			}
			if r.wal != nil {
				if err := r.wal.AppendResume(id, false); err != nil {
					return false, err
				}
			}
			r.trace.Note(number, "ack")
			obsApplied.Inc()
			r.box.Resolve(id)
			if f, ok := user.(chase.Forgetter); ok {
				f.Forget(number)
			}
			return true, nil
		case chase.StateAwaitingUser:
			applied := false
			groups := append([]*chase.FrontierGroup(nil), u.Groups()...)
			for _, g := range groups {
				opts := r.engine.Options(u, g)
				if len(opts) == 0 {
					continue
				}
				ctx := r.engine.DecisionContext(u, g)
				for i, a := range e.Answers {
					if consumed[i] || a.Context != ctx {
						continue
					}
					consumed[i] = true
					if err := r.engine.ApplyOption(u, g, a.Option); err != nil {
						if errors.Is(err, chase.ErrStaleDecision) {
							// The instance changed under the recorded
							// answer; skip it and let the question be
							// asked again.
							continue
						}
						return fail(err)
					}
					applied = true
					break
				}
				if applied {
					break
				}
			}
			if applied {
				continue
			}
			// Out of matching recorded answers: consult the live user,
			// recording anything it supplies so a crash mid-resume
			// replays it.
			if user != nil {
				if ok, err := r.consultLocked(u, user, id); err != nil {
					return fail(err)
				} else if ok {
					continue
				}
			}
			return park()
		}
	}
}

// consultLocked asks user for one frontier operation during a resume,
// durably recording the answer (when it is one of the enumerable
// options — a free-form decision such as an explicit reconfirmation
// applies without a record; see the package comment for why that is
// safe). ok reports whether an operation was applied.
func (r *Repository) consultLocked(u *chase.Update, user chase.User, id int64) (bool, error) {
	groups := append([]*chase.FrontierGroup(nil), u.Groups()...)
	for _, g := range groups {
		opts := r.engine.Options(u, g)
		if len(opts) == 0 {
			continue
		}
		ctx := r.engine.DecisionContext(u, g)
		d, ok := user.Decide(u, g, opts, ctx)
		if !ok {
			continue
		}
		if idx := decisionIndex(opts, d); idx >= 0 && r.wal != nil {
			if err := r.wal.AppendAnswer(id, ctx, idx); err != nil {
				return false, err
			}
		}
		if err := r.engine.Apply(u, g.ID, d); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// decisionIndex locates a decision in an options enumeration (-1 when
// absent, e.g. a reconfirmation).
func decisionIndex(opts []chase.Decision, d chase.Decision) int {
	for i, o := range opts {
		if o.Kind != d.Kind || o.TupleIdx != d.TupleIdx || o.Target != d.Target ||
			len(o.Subset) != len(d.Subset) {
			continue
		}
		same := true
		for j := range o.Subset {
			if o.Subset[j] != d.Subset[j] {
				same = false
				break
			}
		}
		if same {
			return i
		}
	}
	return -1
}

// Inbox lists the parked decisions, highest priority first.
func (r *Repository) Inbox() []inbox.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box.List()
}

// InboxEntry returns one parked decision by ID.
func (r *Repository) InboxEntry(id int64) (inbox.Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box.Get(id)
}

// ClaimInbox marks an entry as taken by a curator (advisory: it keeps
// co-curators from answering the same question twice).
func (r *Repository) ClaimInbox(id int64, who string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box.Claim(id, who)
}

// AnswerInbox answers a parked decision with the index of one of its
// entry's Options and resumes the parked update. It returns resolved
// == true when the update ran to completion and committed; false when
// the resumed chase blocked on a further question, which replaced the
// entry's question in the inbox (answer again). The answer is durable
// before the resume starts, so a crash mid-resume replays it.
func (r *Repository) AnswerInbox(id int64, option int) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.box.Get(id)
	if !ok {
		return false, fmt.Errorf("core: no inbox entry %d", id)
	}
	if option < 0 || option >= len(e.Options) {
		return false, fmt.Errorf("core: entry %d has %d options; %d is out of range", id, len(e.Options), option)
	}
	if r.wal != nil {
		if err := r.wal.AppendAnswer(id, e.Context, option); err != nil {
			return false, err
		}
	}
	if err := r.box.Answer(id, inbox.Answer{Context: e.Context, Option: option}); err != nil {
		return false, err
	}
	if r.trace.Enabled() && e.Update > 0 {
		r.trace.NoteDetail(e.Update, "answer", fmt.Sprintf("entry=%d option=%d", id, option))
	}
	return r.resumeLocked(id, nil)
}

// CancelInbox aborts a parked update: the entry leaves the inbox (and
// the log, durably). Nothing needs rolling back in the store — parked
// updates hold no uncommitted writes.
func (r *Repository) CancelInbox(id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.box.Get(id); !ok {
		return fmt.Errorf("core: no inbox entry %d", id)
	}
	if r.wal != nil {
		if err := r.wal.AppendResume(id, true); err != nil {
			return err
		}
	}
	r.box.Abort(id)
	return nil
}

// InboxTick advances the inbox's logical clock by n ticks and executes
// the policy actions that came due: deadline auto-answers run the
// fallback user (SetFallbackUser) against the parked update, deadline
// aborts cancel it, and escalations have already raised entry
// priorities. It returns the first error.
func (r *Repository) InboxTick(n int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, due := range r.box.Tick(n) {
		switch due.Kind {
		case inbox.DueAutoAnswer:
			if r.fallback == nil {
				continue
			}
			if _, err := r.resumeLocked(due.ID, r.fallback); err != nil && first == nil {
				first = err
			}
		case inbox.DueAbort:
			if r.wal != nil {
				if err := r.wal.AppendResume(due.ID, true); err != nil {
					if first == nil {
						first = err
					}
					continue
				}
			}
			r.box.Abort(due.ID)
		}
	}
	return first
}

// SetInboxPolicy sets the timeout/escalation policy stamped on entries
// parked from now on.
func (r *Repository) SetInboxPolicy(p inbox.Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inboxPolicy = p
}

// SetFallbackUser sets the user deadline auto-answers consult.
func (r *Repository) SetFallbackUser(u chase.User) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fallback = u
}
