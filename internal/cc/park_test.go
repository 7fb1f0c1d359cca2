package cc

import (
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
)

// TestParkedTxnPollable pins when a round serves a
// parked txn: only once a poll can move it — its entry holds an answer
// the last replay was not offered, the update stepped since that
// replay, or the entry is gone. A parked txn is otherwise never polled.
func TestParkedTxnPollable(t *testing.T) {
	box := inbox.NewBox()
	id := box.Park(inbox.Entry{Question: "q"})
	u := chase.NewUpdate(1, chase.Insert(model.NewTuple("R", model.Const("a"))))
	p := &parkState{id: id, steps: u.Stats.Steps}
	if p.pollable(box, u) {
		t.Fatal("a freshly parked txn is pollable")
	}
	if err := box.Answer(id, inbox.Answer{Context: "ctx"}); err != nil {
		t.Fatal(err)
	}
	if !p.pollable(box, u) {
		t.Fatal("a recorded answer does not make the txn pollable")
	}
	p.offered = 1
	if p.pollable(box, u) {
		t.Fatal("an answer the last replay was offered keeps the txn pollable")
	}
	u.Stats.Steps++
	if !p.pollable(box, u) {
		t.Fatal("a txn that stepped since its last replay is not pollable")
	}
	p.steps = u.Stats.Steps
	box.Abort(id)
	if !p.pollable(box, u) {
		t.Fatal("a txn whose entry is gone is not pollable")
	}
}
