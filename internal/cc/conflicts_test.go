package cc

import (
	"fmt"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// These tests pin Algorithm 4's detection: writes to relation sets
// disjoint from a reader's stored queries never mark it, and writes to
// overlapping sets do.

func conflictSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("R", "a", "b")
	s.MustAddRelation("S", "a")
	s.MustAddRelation("T", "a")
	return s
}

// mkTxn builds a txn whose update has the given stored reads, as if
// recorded by a prior step.
func mkTxn(number int, reads ...query.ReadQuery) *Txn {
	u := chase.NewUpdate(number, chase.Insert(model.NewTuple("T", model.Const("x"))))
	for _, q := range reads {
		u.RecordRead(q)
	}
	return &Txn{Upd: u, Number: number}
}

func TestDirectConflictsDisjointRelations(t *testing.T) {
	st := storage.NewStore(conflictSchema())
	cfg := &Config{Tracker: Coarse{}}

	// Txn 2 stored a content read over S and a more-specific read over
	// R; writer 1 writes only into T — disjoint, so no marks.
	reader := mkTxn(2,
		&query.ContentRead{Rel: "S", Vals: []model.Value{model.Const("v")}, ReaderNo: 2},
		&query.MoreSpecificRead{Rel: "R", Pattern: []model.Value{model.Const("v"), model.Null(1)}, ReaderNo: 2},
	)
	_, w, _, err := st.Insert(1, model.NewTuple("T", model.Const("v")))
	if err != nil {
		t.Fatal(err)
	}

	var m Metrics
	cands := candidatesInto(nil, above([]*Txn{reader}, 1))
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1", len(cands))
	}
	if marked := directConflicts(st, cfg, new(query.Checker), cands, []storage.WriteRec{w}, &m); len(marked) != 0 {
		t.Fatalf("disjoint write marked %d victims", len(marked))
	}
	if m.DirectAbortRequests != 0 {
		t.Fatalf("disjoint write raised %d direct requests", m.DirectAbortRequests)
	}
}

func TestDirectConflictsOverlappingRelations(t *testing.T) {
	st := storage.NewStore(conflictSchema())
	cfg := &Config{Tracker: Coarse{}}

	reader := mkTxn(2,
		&query.ContentRead{Rel: "S", Vals: []model.Value{model.Const("v")}, ReaderNo: 2},
	)
	// Writer 1 inserts exactly the probed content: the stored answer
	// ("absent") retroactively changes.
	_, w, _, err := st.Insert(1, model.NewTuple("S", model.Const("v")))
	if err != nil {
		t.Fatal(err)
	}

	var m Metrics
	cands := candidatesInto(nil, above([]*Txn{reader}, 1))
	marked := directConflicts(st, cfg, new(query.Checker), cands, []storage.WriteRec{w}, &m)
	if len(marked) != 1 || marked[0].Number != 2 {
		t.Fatalf("overlapping write marked %v, want txn 2", marked)
	}
	if m.DirectAbortRequests != 1 {
		t.Fatalf("DirectAbortRequests = %d, want 1", m.DirectAbortRequests)
	}
}

func TestDirectConflictsInvisibleWriter(t *testing.T) {
	st := storage.NewStore(conflictSchema())
	cfg := &Config{Tracker: Coarse{}}

	// Writer 3's insert is invisible to reader 2, so even identical
	// content cannot change reader 2's answers.
	reader := mkTxn(2,
		&query.ContentRead{Rel: "S", Vals: []model.Value{model.Const("v")}, ReaderNo: 2},
	)
	_, w, _, err := st.Insert(3, model.NewTuple("S", model.Const("v")))
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	// The window is cut at the writer (above); check the query
	// layer agrees if forced through.
	cands := []*Txn{reader}
	if marked := directConflicts(st, cfg, new(query.Checker), cands, []storage.WriteRec{w}, &m); len(marked) != 0 {
		t.Fatalf("invisible write marked %v", marked)
	}
	if got := candidatesInto(nil, above([]*Txn{reader}, 3)); len(got) != 0 {
		t.Fatalf("candidatesInto included lower-numbered txn: %v", got)
	}
}

func TestDirectConflictsViolationReadRelations(t *testing.T) {
	// A stored violation query over mapping R(x,y) -> S(x): writes into
	// T are disjoint from the mapping's relations and never conflict;
	// writes into R that complete the premise do.
	st := storage.NewStore(conflictSchema())
	cfg := &Config{Tracker: Coarse{}}
	m1 := tgd.New("m1",
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("y"))},
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("x"))})
	if err := m1.Validate(st.Schema()); err != nil {
		t.Fatal(err)
	}

	// Reader 2 evaluates the seeded violation query on the current
	// (empty) store and stores it.
	seed := []model.Value{model.Const("a"), model.Const("b")}
	rq, _ := query.NewViolationRead(query.NewEngine(st.Snap(2)), m1, "R", seed, query.SeedLHS)
	reader := mkTxn(2, rq)
	cands := candidatesInto(nil, above([]*Txn{reader}, 1))

	// Disjoint: writer 1 writes T.
	_, wT, _, err := st.Insert(1, model.NewTuple("T", model.Const("a")))
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if marked := directConflicts(st, cfg, new(query.Checker), cands, []storage.WriteRec{wT}, &m); len(marked) != 0 {
		t.Fatalf("disjoint T write marked %v", marked)
	}

	// Overlapping: writer 1 inserts the seed premise into R, creating
	// the violation the stored query did not see.
	_, wR, _, err := st.Insert(1, model.NewTuple("R", model.Const("a"), model.Const("b")))
	if err != nil {
		t.Fatal(err)
	}
	marked := directConflicts(st, cfg, new(query.Checker), cands, []storage.WriteRec{wR}, &m)
	if len(marked) != 1 {
		t.Fatalf("overlapping R write marked %d victims, want 1", len(marked))
	}
}

// TestAbortWaveKeepsWriterRecords pins that the records a step hands
// out (StepResult.Writes, the engine's buffer) survive the abort wave
// their conflict processing starts: rolling a victim back resets its
// update, and a reset must leave the engine's buffer alone.
func TestAbortWaveKeepsWriterRecords(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x")
	set := tgd.MustNewSet(tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"))}))
	if err := set.Validate(schema); err != nil {
		t.Fatal(err)
	}
	a := chase.Insert(model.NewTuple("A", model.Const("a")))
	s := NewScheduler(storage.NewStore(schema), set, Config{})
	s.begin([]chase.Op{a, a})
	// Update 2 steps first and stores a content read of A(a), which
	// update 1's insert of the same fact changes.
	t1, t2 := s.start(), s.start()
	for _, tx := range []*Txn{t2, t1} {
		res, err := s.engine.Step(tx.Upd)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Writes) == 0 {
			t.Fatalf("update %d wrote nothing", tx.Number)
		}
		before := fmt.Sprintf("%+v", res.Writes)
		if err := s.processWrites(res.Writes); err != nil {
			t.Fatal(err)
		}
		if after := fmt.Sprintf("%+v", res.Writes); after != before {
			t.Fatalf("update %d's records changed under conflict processing:\n%s\nbecame\n%s", tx.Number, before, after)
		}
	}
	if s.m.Aborts != 1 || t2.Upd.Attempt != 2 {
		t.Fatalf("%d aborts, update 2 on attempt %d: want update 2 aborted once", s.m.Aborts, t2.Upd.Attempt)
	}
}
