package chase

import (
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// TestForeignAbortRechecksQueue: an abort by another update changes
// what the queue's violations see without a write of its own, so the
// next step re-evaluates every entry. Update 2 queues a violation that
// exists only because update 1 deleted L(k); update 1 then aborts,
// restoring the RHS support, and update 2's next step writes nothing
// the violation depends on. The violation must still leave the queue.
func TestForeignAbortRechecksQueue(t *testing.T) {
	audit := CheckRechecks(t)
	schema := model.NewSchema()
	schema.MustAddRelation("H", "x")
	schema.MustAddRelation("C", "x")
	schema.MustAddRelation("K", "x", "z")
	schema.MustAddRelation("L", "z")
	schema.MustAddRelation("N", "x")
	set := tgd.MustNewSet(tgd.New("hold",
		[]tgd.Atom{tgd.NewAtom("H", tgd.V("x")), tgd.NewAtom("C", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("K", tgd.V("x"), tgd.V("z")), tgd.NewAtom("L", tgd.V("z"))}))
	if err := set.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	var l storage.TupleID
	for _, tu := range []model.Tuple{
		model.NewTuple("H", model.Const("h")),
		model.NewTuple("K", model.Const("h"), model.Const("k")),
		model.NewTuple("L", model.Const("k")),
	} {
		id, err := st.Load(tu)
		if err != nil {
			t.Fatal(err)
		}
		l = id
	}
	if _, ok, err := st.Delete(1, l); err != nil || !ok {
		t.Fatalf("update 1's delete: %v %v", ok, err)
	}

	eng := NewEngine(st, set)
	u := NewUpdate(2, Insert(model.NewTuple("C", model.Const("h"))))
	for u.State() == StateReady {
		if _, err := eng.Step(u); err != nil {
			t.Fatal(err)
		}
	}
	if u.State() != StateAwaitingUser || u.QueueLen() != 1 {
		t.Fatalf("update 2 is %s with %d queued, want the hold violation awaiting a user", u.State(), u.QueueLen())
	}

	st.Abort(1)
	u.writeSet = append(u.writeSet, Insert(model.NewTuple("N", model.Const("n"))))
	u.state = StateReady
	if _, err := eng.Step(u); err != nil {
		t.Fatal(err)
	}
	if msg := audit.Mismatch(); msg != "" {
		t.Fatal(msg)
	}
	if u.QueueLen() != 0 || len(u.Groups()) != 0 || u.State() != StateTerminated {
		t.Fatalf("after update 1's abort, update 2 is %s with %d queued and %d groups, want terminated",
			u.State(), u.QueueLen(), len(u.Groups()))
	}
}
