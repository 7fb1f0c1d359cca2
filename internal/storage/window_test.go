package storage

import (
	"testing"

	"youtopia/internal/model"
)

// The ceiling/window filters reconstruct read-time state for the
// conflict checks of Algorithm 4; these tests pin their semantics.

// ceiled returns a copy of sn as of sequence number seq.
func ceiled(sn *Snapshot, seq int64) *Snapshot {
	out := *sn
	out.SetCeiling(seq)
	return &out
}

// windowed returns a copy of sn as of ceil, widened by the writes other
// writers performed up to upto.
func windowed(sn *Snapshot, ceil, upto int64) *Snapshot {
	out := *sn
	out.SetWindow(ceil, upto)
	return &out
}

func TestWithCeilingReconstructsPast(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("C", c("v1")))
	seqAfterLoad := st.CurrentSeq()

	// Writer 1 rewrites the tuple later.
	if _, err := st.DeleteContent(1, tup("C", c("v1"))); err != nil {
		t.Fatal(err)
	}
	snap := st.Snap(10)
	if _, ok := snap.Get(id); ok {
		t.Fatal("current state must show the delete")
	}
	past := ceiled(snap, seqAfterLoad)
	if vals, ok := past.Get(id); !ok || vals[0] != c("v1") {
		t.Fatalf("ceiling must expose the pre-delete state, got %v %v", vals, ok)
	}
}

func TestWithWindowAdmitsOthersWrites(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("base")))
	readSeq := st.CurrentSeq()

	// After the read: writer 2 (the reader) inserts, writer 1 inserts.
	_, w2, _, _ := st.Insert(2, tup("C", c("mine")))
	_, w1, _, _ := st.Insert(1, tup("C", c("theirs")))

	reader := st.Snap(2)
	// Pure ceiling: neither write visible.
	past := ceiled(reader, readSeq)
	if contains(past, tup("C", c("mine"))) || contains(past, tup("C", c("theirs"))) {
		t.Fatal("ceiling leaked post-read writes")
	}
	// Window up to w1: the other writer's insert is admitted, the
	// reader's own later write stays hidden.
	win := windowed(reader, readSeq, w1.Seq)
	if !contains(win, tup("C", c("theirs"))) {
		t.Fatal("window must admit the other writer's write")
	}
	if contains(win, tup("C", c("mine"))) {
		t.Fatal("window must hide the reader's own post-read write")
	}
	_ = w2
}

func TestWithWindowRespectsUpperBound(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("base")))
	readSeq := st.CurrentSeq()
	_, wA, _, _ := st.Insert(1, tup("C", c("a")))
	_, wB, _, _ := st.Insert(1, tup("C", c("b")))

	win := windowed(st.Snap(5), readSeq, wA.Seq)
	if !contains(win, tup("C", c("a"))) {
		t.Fatal("wA inside window")
	}
	if contains(win, tup("C", c("b"))) {
		t.Fatal("wB beyond window must be hidden")
	}
	_ = wB
}

func TestWindowStillRespectsPriorities(t *testing.T) {
	st := NewStore(testSchema())
	readSeq := st.CurrentSeq()
	_, w9, _, _ := st.Insert(9, tup("C", c("hi")))
	// Reader 5's window never admits writer 9.
	win := windowed(st.Snap(5), readSeq, w9.Seq)
	if contains(win, tup("C", c("hi"))) {
		t.Fatal("priority visibility violated inside window")
	}
}

func TestMaskComposesWithCeiling(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("R", model.Null(1), c("k")))
	recs, _ := st.ReplaceNull(1, model.Null(1), c("done"))
	seqNow := st.CurrentSeq()

	snap := ceiled(st.Snap(5), seqNow)
	snap.SetMask(1, recs[0].Seq)
	if vals, ok := snap.Get(id); !ok || vals[0] != model.Null(1) {
		t.Fatalf("mask within ceiling must expose prior version, got %v %v", vals, ok)
	}
}

func TestReplaceNullCollapsesDuplicates(t *testing.T) {
	// §2.2: unification collapses tuples; a replacement that makes a
	// tuple identical to an existing one must tombstone it rather than
	// keep duplicate content.
	st := testStore(testSchema())
	st.Load(tup("C", c("Ithaca")))
	st.Load(tup("C", n(4)))
	recs, err := st.ReplaceNull(1, n(4), c("Ithaca"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != OpDelete {
		t.Fatalf("expected a collapse tombstone, got %v", recs)
	}
	snap := st.Snap(1)
	if got := lookupContent(snap, tup("C", c("Ithaca"))); len(got) != 1 {
		t.Fatalf("duplicate content after collapse: %v", got)
	}
	mustAudit(t, st)
}

func TestReplaceNullCollapsesWithinBatch(t *testing.T) {
	// Two tuples that become identical through the same replacement
	// must collapse onto each other.
	st := testStore(testSchema())
	st.Load(tup("R", n(7), c("v")))
	st.Load(tup("R", n(7), c("v")))
	// Deduplication at load prevents the above from being two rows;
	// construct the collision differently: R(x7, v) and R(x8, v), then
	// unify x8 with x7 first.
	st2 := testStore(testSchema())
	st2.Load(tup("R", n(7), c("v")))
	st2.Load(tup("R", n(8), c("v")))
	recs, err := st2.ReplaceNull(1, n(8), n(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != OpDelete {
		t.Fatalf("expected collapse, got %v", recs)
	}
	if got := lookupContent(st2.Snap(1), tup("R", n(7), c("v"))); len(got) != 1 {
		t.Fatalf("copies = %v", got)
	}
	mustAudit(t, st2)
}
