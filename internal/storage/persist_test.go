package storage

import (
	"errors"
	"fmt"
	"testing"

	"youtopia/internal/model"
)

// These tests pin the pipelined commit-hook contract: the merged
// record slice is handed over in (writer, seq) order, is rebuilt from
// a reusable scratch buffer (so the hook must copy to retain), a veto
// leaves the store unchanged, and in-memory commits need no ack.

func persistSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("A", "x")
	s.MustAddRelation("B", "x", "y")
	return s
}

func TestCommitHookMergeOrderAndScratchReuse(t *testing.T) {
	st := NewStore(persistSchema())
	var batches [][]WriteRec
	st.SetCommitHook(func(writers []int, recs []WriteRec) (CommitAck, error) {
		batches = append(batches, append([]WriteRec(nil), recs...))
		return nil, nil
	})

	ins := func(w int, rel string, vals ...string) {
		t.Helper()
		mv := make([]model.Value, len(vals))
		for i, v := range vals {
			mv[i] = model.Const(v)
		}
		if _, _, ok, err := st.Insert(w, model.NewTuple(rel, mv...)); err != nil || !ok {
			t.Fatalf("insert: ok=%v err=%v", ok, err)
		}
	}
	// Interleave writers across stripes so the merge has real work:
	// writer 2 writes before writer 1 in wall-clock order, into both
	// relations.
	ins(2, "B", "b1", "b2")
	ins(1, "A", "a1")
	ins(2, "A", "a2")
	ins(1, "B", "b3", "b4")
	if err := st.CommitBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Second batch through the same (reused) scratch.
	ins(3, "A", "a3")
	if err := st.CommitBatch([]int{3}); err != nil {
		t.Fatal(err)
	}

	if len(batches) != 2 {
		t.Fatalf("hook saw %d batches, want 2", len(batches))
	}
	if got := len(batches[0]); got != 4 {
		t.Fatalf("batch 1 carries %d records, want 4", got)
	}
	for i := 1; i < len(batches[0]); i++ {
		a, b := batches[0][i-1], batches[0][i]
		if a.Writer > b.Writer || (a.Writer == b.Writer && a.Seq >= b.Seq) {
			t.Fatalf("batch 1 not in (writer, seq) order at %d: %v then %v", i, a, b)
		}
	}
	if got := len(batches[1]); got != 1 || batches[1][0].Writer != 3 {
		t.Fatalf("batch 2 = %v, want writer 3's single record", batches[1])
	}
	// The first batch's copy must be intact after the second one
	// reused the scratch.
	if batches[0][0].Writer != 1 {
		t.Fatalf("batch 1 starts with writer %d, want 1", batches[0][0].Writer)
	}
}

func TestCommitHookVetoLeavesStoreUnchanged(t *testing.T) {
	st := NewStore(persistSchema())
	veto := errors.New("no disk today")
	st.SetCommitHook(func([]int, []WriteRec) (CommitAck, error) { return nil, veto })
	if _, _, ok, err := st.Insert(1, model.NewTuple("A", model.Const("x"))); err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	if err := st.CommitBatch([]int{1}); !errors.Is(err, veto) {
		t.Fatalf("CommitBatch = %v, want the veto", err)
	}
	if contains(st.EpochSnap(), model.NewTuple("A", model.Const("x"))) {
		t.Fatal("vetoed writer's insert is in the committed state")
	}
	if got := len(st.WritesOf(1)); got != 1 {
		t.Fatalf("vetoed writer's log has %d records, want 1 (retained)", got)
	}
}

func TestCommitBatchAsyncAckContract(t *testing.T) {
	// In-memory: no hook, no ack.
	st := NewStore(persistSchema())
	if _, _, _, err := st.Insert(1, model.NewTuple("A", model.Const("x"))); err != nil {
		t.Fatal(err)
	}
	ack, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ack != nil {
		t.Fatal("in-memory commit returned an ack")
	}
	if !contains(st.EpochSnap(), model.NewTuple("A", model.Const("x"))) {
		t.Fatal("async commit did not commit")
	}

	// Hooked: the hook's ack is passed through and CommitBatch waits
	// on it.
	st2 := NewStore(persistSchema())
	waited := 0
	ackErr := errors.New("sync failed later")
	st2.SetCommitHook(func([]int, []WriteRec) (CommitAck, error) {
		return func() error { waited++; return ackErr }, nil
	})
	if _, _, _, err := st2.Insert(1, model.NewTuple("A", model.Const("x"))); err != nil {
		t.Fatal(err)
	}
	if err := st2.CommitBatch([]int{1}); !errors.Is(err, ackErr) {
		t.Fatalf("CommitBatch = %v, want the ack error", err)
	}
	if waited != 1 {
		t.Fatalf("ack waited %d times, want 1", waited)
	}
	// The ack failure does NOT roll back the in-memory commit: the
	// batch is committed but unacknowledged (callers surface the
	// error; the backend refuses further commits).
	if !contains(st2.EpochSnap(), model.NewTuple("A", model.Const("x"))) {
		t.Fatal("ack failure rolled back the in-memory commit")
	}
}

func TestCommitMergeProbeSteadyStateAllocFree(t *testing.T) {
	st := NewStore(persistSchema())
	for w := 1; w <= 3; w++ {
		for j := 0; j < 5; j++ {
			tp := model.NewTuple("B", model.Const(fmt.Sprintf("w%d", w)), model.Const(fmt.Sprintf("j%d", j)))
			if _, _, ok, err := st.Insert(w, tp); err != nil || !ok {
				t.Fatalf("insert: ok=%v err=%v", ok, err)
			}
		}
	}
	probe := st.CommitMergeProbe([]int{1, 2, 3})
	probe() // warm the scratch
	if got := testing.AllocsPerRun(200, probe); got != 0 {
		t.Fatalf("commit-batch merge allocates %.1f/op in steady state, want 0", got)
	}
}
