package cc

import (
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
)

// This file is the scheduler's half of the decision inbox. In inbox
// mode (Config.Inbox != nil) a transaction that blocks on a frontier
// group is parked exactly once: its open question becomes an inbox
// entry, the transaction stops taking round opportunities, and NO user poll
// runs on its behalf until an answer is recorded (the Metrics.UserPolls
// counter stays put while it waits — the bounded-polls property the
// legacy busy-repoll mode lacks). Answers recorded on the box — by an
// asynchronous answerer, a curator, or a deadline auto-answer — wake
// the transaction; deadline aborts cancel it.

// parkState is a txn's inbox state while it waits on an entry: the entry
// ID, which of the entry's recorded answers were consumed, how many
// answers the last replay was offered, and the update's step count at
// that replay.
type parkState struct {
	id      int64
	used    []bool
	offered int
	steps   int
}

// pollable reports whether a poll can move a txn parked under p: its
// entry is gone, holds an answer the last replay was not offered, or
// the update stepped since that replay — it blocked again, perhaps on
// a question the entry does not show yet.
func (p *parkState) pollable(box *inbox.Box, u *chase.Update) bool {
	if u.Stats.Steps != p.steps {
		return true
	}
	e, ok := box.Get(p.id)
	return !ok || len(e.Answers) > p.offered
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
			ok, err := s.pollUser(t)
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

// reaskIfStale refreshes a parked entry's question when the update
// re-blocked on a different frontier group than the entry shows (after
// an abort/restart, or after a consumed answer led somewhere new), so
// curators always see an answerable question. Answer history is
// preserved by Requeue.
func reaskIfStale(e *chase.Engine, box *inbox.Box, u *chase.Update, cur *inbox.Entry) {
	q, ok := inbox.Ask(e, u)
	if !ok || (cur.Status != inbox.Answered && cur.Context == q.Context) {
		return
	}
	_ = box.Requeue(cur.ID, q)
}

// forgetCommitted drops a Forgetter user's per-update bookkeeping for a
// committed batch.
func forgetCommitted(user chase.User, batch []*Txn) {
	f, ok := user.(chase.Forgetter)
	if !ok {
		return
	}
	for _, t := range batch {
		f.Forget(t.Number)
	}
}
