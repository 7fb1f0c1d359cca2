package cc

import (
	"youtopia/internal/chase"
	"youtopia/internal/inbox"
)

// This file is the schedulers' half of the decision inbox. In inbox
// mode (Config.Inbox != nil) a transaction that blocks on a frontier
// group is parked exactly once: its open question becomes an inbox
// entry, the transaction leaves the dispatchable set, and NO user poll
// runs on its behalf until an answer is recorded (the Metrics.UserPolls
// counter stays put while it waits — the bounded-polls property the
// legacy busy-repoll mode lacks). Answers recorded on the box — by an
// asynchronous answerer, a curator, or a deadline auto-answer — wake
// the transaction; deadline aborts cancel it.

// parkState is a txn's inbox state while it waits on an entry: the entry
// ID, which of the entry's recorded answers were consumed, and how many
// answers the last replay was offered.
type parkState struct {
	id      int64
	used    []bool
	offered int
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
