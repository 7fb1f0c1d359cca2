package storage

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"youtopia/internal/model"
)

func testSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("C", "city")
	s.MustAddRelation("S", "code", "location", "city")
	s.MustAddRelation("R", "a", "b")
	return s
}

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

func TestInsertAndGet(t *testing.T) {
	st := NewStore(testSchema())
	id, rec, ins, err := st.Insert(1, tup("C", c("Ithaca")))
	if err != nil || !ins {
		t.Fatalf("insert: %v %v", ins, err)
	}
	if rec.Op != OpInsert || rec.Writer != 1 || rec.Rel != "C" {
		t.Fatalf("rec = %+v", rec)
	}
	if vals, ok := st.Snap(1).Get(id); !ok || vals[0] != c("Ithaca") {
		t.Fatalf("Get = %v %v", vals, ok)
	}
}

func TestInsertSchemaViolations(t *testing.T) {
	st := NewStore(testSchema())
	if _, _, _, err := st.Insert(1, tup("Nope", c("x"))); err == nil {
		t.Fatal("undeclared relation accepted")
	}
	if _, _, _, err := st.Insert(1, tup("C", c("x"), c("y"))); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestInsertDuplicateNoOp(t *testing.T) {
	st := NewStore(testSchema())
	id1, _, ins1, _ := st.Insert(1, tup("C", c("Ithaca")))
	id2, _, ins2, _ := st.Insert(1, tup("C", c("Ithaca")))
	if !ins1 || ins2 {
		t.Fatalf("duplicate insert: ins1=%v ins2=%v", ins1, ins2)
	}
	if id1 != id2 {
		t.Fatalf("duplicate returned different id: %d vs %d", id1, id2)
	}
	// A different writer below priority 1 does not see it, so its
	// insert is real.
	_, _, ins3, _ := st.Insert(1, tup("C", c("Syracuse")))
	if !ins3 {
		t.Fatal("distinct content must insert")
	}
}

func TestVisibilityByPriority(t *testing.T) {
	st := NewStore(testSchema())
	id, _, _, _ := st.Insert(3, tup("C", c("NYC")))
	if _, ok := st.Snap(2).Get(id); ok {
		t.Fatal("reader 2 must not see writer 3's tuple")
	}
	if _, ok := st.Snap(3).Get(id); !ok {
		t.Fatal("reader 3 must see its own tuple")
	}
	if _, ok := st.Snap(9).Get(id); !ok {
		t.Fatal("reader 9 must see writer 3's tuple")
	}
}

func TestVisibilityFollowsSerializationOrder(t *testing.T) {
	// Writer 3 modifies a committed tuple, then writer 1 modifies the
	// original too (wall-clock later). Readers at priority >= 3 must
	// see writer 3's version: visibility is by (writer, seq), not
	// arrival time.
	st := NewStore(testSchema())
	id, _ := st.Load(tup("R", n(1), c("base")))
	if _, err := st.ReplaceNull(3, n(1), c("three")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReplaceNull(1, n(1), c("one")); err != nil {
		t.Fatal(err)
	}
	if vals, _ := st.Snap(1).Get(id); vals[0] != c("one") {
		t.Fatalf("reader 1 sees %v", vals)
	}
	if vals, _ := st.Snap(2).Get(id); vals[0] != c("one") {
		t.Fatalf("reader 2 sees %v", vals)
	}
	if vals, _ := st.Snap(3).Get(id); vals[0] != c("three") {
		t.Fatalf("reader 3 sees %v, want writer 3's version", vals)
	}
	if vals, _ := st.Snap(10).Get(id); vals[0] != c("three") {
		t.Fatalf("reader 10 sees %v, want writer 3's version", vals)
	}
}

func TestDelete(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("C", c("Ithaca")))
	rec, ok, err := st.Delete(2, id)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if rec.Op != OpDelete || rec.Before[0] != c("Ithaca") {
		t.Fatalf("rec = %+v", rec)
	}
	if _, ok := st.Snap(2).Get(id); ok {
		t.Fatal("deleted tuple visible to deleter")
	}
	if _, ok := st.Snap(1).Get(id); !ok {
		t.Fatal("reader 1 must still see the tuple (writer 2 deleted it)")
	}
	// Double delete is a no-op.
	if _, ok, _ := st.Delete(2, id); ok {
		t.Fatal("second delete must be a no-op")
	}
	// Deleting an unknown id is a no-op, not an error.
	if _, ok, err := st.Delete(2, 9999); ok || err != nil {
		t.Fatalf("delete unknown: %v %v", ok, err)
	}
}

func TestDeleteContent(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("Ithaca")))
	recs, err := st.DeleteContent(1, tup("C", c("Ithaca")))
	if err != nil || len(recs) != 1 {
		t.Fatalf("DeleteContent: %v %v", recs, err)
	}
	if contains(st.Snap(1), tup("C", c("Ithaca"))) {
		t.Fatal("content still present")
	}
	// Absent content deletes nothing.
	recs, err = st.DeleteContent(1, tup("C", c("Ghost")))
	if err != nil || len(recs) != 0 {
		t.Fatalf("DeleteContent absent: %v %v", recs, err)
	}
}

func TestReplaceNull(t *testing.T) {
	st := NewStore(testSchema())
	idS, _ := st.Load(tup("S", c("SYR"), n(7), c("Ithaca")))
	idR, _ := st.Load(tup("R", n(7), n(8)))
	recs, err := st.ReplaceNull(1, n(7), c("Syracuse"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("expected 2 modifies, got %v", recs)
	}
	snap := st.Snap(1)
	if vals, _ := snap.Get(idS); vals[1] != c("Syracuse") {
		t.Fatalf("S not rewritten: %v", vals)
	}
	if vals, _ := snap.Get(idR); vals[0] != c("Syracuse") || vals[1] != n(8) {
		t.Fatalf("R not rewritten correctly: %v", vals)
	}
	// x7 gone from the null index for this snapshot.
	if got := snap.TuplesWithNull(n(7)); len(got) != 0 {
		t.Fatalf("x7 still indexed: %v", got)
	}
	if got := snap.TuplesWithNull(n(8)); len(got) != 1 || got[0] != idR {
		t.Fatalf("x8 index wrong: %v", got)
	}
	mustAudit(t, st)
}

func TestReplaceNullErrors(t *testing.T) {
	st := NewStore(testSchema())
	if _, err := st.ReplaceNull(1, c("a"), c("b")); err == nil {
		t.Fatal("replacing a constant accepted")
	}
	if _, err := st.ReplaceNull(1, n(1), n(1)); err == nil {
		t.Fatal("self-replacement accepted")
	}
}

func TestReplaceNullRespectsVisibility(t *testing.T) {
	st := NewStore(testSchema())
	// Writer 5's tuple contains x1; writer 2 replaces x1. Writer 2
	// cannot see writer 5's tuple, so it must remain untouched.
	id5, _, _, _ := st.Insert(5, tup("C", n(1)))
	idBase, _ := st.Load(tup("R", n(1), c("k")))
	recs, err := st.ReplaceNull(2, n(1), c("done"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != idBase {
		t.Fatalf("recs = %v", recs)
	}
	if vals, _ := st.Snap(5).Get(id5); vals[0] != n(1) {
		t.Fatalf("writer 5's tuple was touched: %v", vals)
	}
}

func TestFreshNullAvoidsLoadedNulls(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", n(41)))
	if f := st.FreshNull(); f.NullID() <= 41 {
		t.Fatalf("fresh null %v collides with loaded x41", f)
	}
}

func TestAbortRestoresState(t *testing.T) {
	st := testStore(testSchema())
	st.Load(tup("C", c("Ithaca")))
	idS, _ := st.Load(tup("S", c("SYR"), c("Syracuse"), n(3)))
	before := st.Dump(1000)

	// Writer 2 inserts, deletes, and replaces a null.
	st.Insert(2, tup("C", c("NYC")))
	st.DeleteContent(2, tup("C", c("Ithaca")))
	st.ReplaceNull(2, n(3), c("Ithaca"))
	if st.Dump(1000) == before {
		t.Fatal("writes had no visible effect")
	}
	st.Abort(2)
	if got := st.Dump(1000); got != before {
		t.Fatalf("abort did not restore state:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	// Indexes restored too: x3 must be findable again.
	if got := st.Snap(1000).TuplesWithNull(n(3)); len(got) != 1 || got[0] != idS {
		t.Fatalf("null index not restored: %v", got)
	}
	// The writer's log must be gone.
	if logs := st.WritesOf(2); len(logs) != 0 {
		t.Fatalf("log survives abort: %v", logs)
	}
	mustAudit(t, st)
}

func TestAbortRandomizedInverse(t *testing.T) {
	// Property: interleaved ops by writers 1 and 2, then abort(2),
	// leaves exactly the state produced by writer 1's ops alone.
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := func(include2 bool) string {
			st := testStore(testSchema())
			st.Load(tup("R", c("a"), c("b")))
			st.Load(tup("R", n(1), c("k")))
			local := rand.New(rand.NewSource(seed + 1000))
			for i := 0; i < 25; i++ {
				w := 1
				if local.Intn(2) == 0 {
					w = 2
				}
				op := local.Intn(3)
				val := c(string(rune('a' + local.Intn(5))))
				if w == 2 && !include2 {
					continue
				}
				switch op {
				case 0:
					st.Insert(w, tup("R", val, c("b")))
				case 1:
					st.DeleteContent(w, tup("R", val, c("b")))
				case 2:
					// Each null replaced at most once per run; draw a
					// fresh null name occasionally to keep ops legal.
					st.Insert(w, tup("R", n(int64(100+i)), val))
				}
			}
			if include2 {
				st.Abort(2)
			}
			mustAudit(t, st)
			return st.Dump(1)
		}
		_ = rng
		with := run(true)
		without := run(false)
		if with != without {
			t.Fatalf("seed %d: abort not an inverse\nwith abort:\n%s\nwithout w2:\n%s",
				seed, with, without)
		}
	}
}

func TestAbortInitialLoadPanics(t *testing.T) {
	st := NewStore(testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("Abort(0) must panic")
		}
	}()
	st.Abort(0)
}

// TestAbortKeepsWriterLiveUntilLocked: a writer's live-writer entry is
// what marks its versions uncommitted, so Abort may drop it only once
// it holds the store's write lock. A committed-state scan parks on the
// stripe's first tuple while an Abort of the writer of a later tuple
// waits for the scan's read lock; the rest of the scan must still hide
// that writer's tuple. The callback waits until the entry is gone or
// the abort is queued on the lock (a read try-lock fails once a writer
// waits), and never calls back into the store's lock, which the
// waiting writer now holds off.
func TestAbortKeepsWriterLiveUntilLocked(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("a")))
	st.Insert(1, tup("C", c("b")))
	var seen []model.Value
	aborted := make(chan struct{})
	st.EpochSnap().ScanRel("C", func(_ TupleID, vals []model.Value) bool {
		if len(seen) == 0 {
			go func() { st.Abort(1); close(aborted) }()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st.isCommitted(1) {
					break
				}
				if !st.mu.TryRLock() {
					break
				}
				st.mu.RUnlock()
			}
		}
		seen = append(seen, vals[0])
		return true
	})
	<-aborted
	if len(seen) != 1 || seen[0] != c("a") {
		t.Fatalf("committed scan during an abort yielded %v, want only [a]", seen)
	}
	if got := countRel(st.EpochSnap(), "C"); got != 1 {
		t.Fatalf("committed tuples after the abort = %d, want 1", got)
	}
}

func TestCommitRetiresLogs(t *testing.T) {
	st := NewStore(testSchema())
	st.Insert(1, tup("C", c("a")))
	if got := st.UncommittedWritersOf("C"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("UncommittedWritersOf = %v", got)
	}
	if got := st.UncommittedWrites(); len(got) != 1 {
		t.Fatalf("UncommittedWrites = %v", got)
	}
	st.Commit(1)
	if !contains(st.EpochSnap(), tup("C", c("a"))) {
		t.Fatal("committed insert missing from the committed state")
	}
	if got := st.UncommittedWritersOf("C"); len(got) != 0 {
		t.Fatalf("writers after commit: %v", got)
	}
	if got := st.UncommittedWrites(); len(got) != 0 {
		t.Fatalf("uncommitted writes after commit: %v", got)
	}
}

// TestLoadKeepsNoLog: the initial load (writer 0) is committed as it
// lands, so it leaves no write-log records behind in any stripe.
func TestLoadKeepsNoLog(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("Ithaca")))
	st.Load(tup("S", c("SYR"), n(7), c("Syracuse")))
	st.Load(tup("R", n(7), c("k")))
	if st.Stats().Tuples != 3 {
		t.Fatalf("loaded %d tuples, want 3", st.Stats().Tuples)
	}
	for _, s := range st.byIdx {
		if _, ok := s.logs[0]; ok {
			t.Errorf("stripe %s holds a writer-0 log: %v", s.rel, s.logs[0])
		}
	}
	if got := st.WritesOf(0); len(got) != 0 {
		t.Fatalf("WritesOf(0) after load = %v", got)
	}
}

func TestCommitBatchRetiresAllWriters(t *testing.T) {
	st := NewStore(testSchema())
	written := []model.Tuple{tup("C", c("a")), tup("S", c("x"), c("y"), c("z")), tup("R", c("p"), c("q"))}
	for i, tu := range written {
		st.Insert(i+1, tu)
	}
	if got := len(st.UncommittedWrites()); got != 3 {
		t.Fatalf("uncommitted before batch = %d, want 3", got)
	}
	st.CommitBatch([]int{1, 2, 3})
	for w := 1; w <= 3; w++ {
		if !contains(st.EpochSnap(), written[w-1]) {
			t.Fatalf("writer %d not committed by batch", w)
		}
		if logs := st.WritesOf(w); len(logs) != 0 {
			t.Fatalf("writer %d log survives batch commit: %v", w, logs)
		}
	}
	if got := st.UncommittedWrites(); len(got) != 0 {
		t.Fatalf("uncommitted writes after batch: %v", got)
	}
	for _, rel := range []string{"C", "S", "R"} {
		if got := st.UncommittedWritersOf(rel); len(got) != 0 {
			t.Fatalf("writers of %s after batch: %v", rel, got)
		}
	}
	// Empty batch is a no-op.
	st.CommitBatch(nil)
}

func TestRelSeqPerStripe(t *testing.T) {
	st := NewStore(testSchema())
	relSeq := func(rel string) int64 { return st.Snap(1 << 30).RelSeq(rel) }
	if relSeq("C") != 0 || relSeq("nope") != 0 {
		t.Fatal("untouched/unknown relations must report seq 0")
	}
	_, w1, _, _ := st.Insert(1, tup("C", c("a")))
	if got := relSeq("C"); got != w1.Seq {
		t.Fatalf("RelSeq(C) = %d, want %d", got, w1.Seq)
	}
	// Writes to another relation leave C's stripe sequence untouched.
	_, w2, _, _ := st.Insert(1, tup("R", c("p"), c("q")))
	if got := relSeq("C"); got != w1.Seq {
		t.Fatalf("RelSeq(C) moved to %d after a disjoint write", got)
	}
	if got := relSeq("R"); got != w2.Seq {
		t.Fatalf("RelSeq(R) = %d, want %d", got, w2.Seq)
	}
}

func TestUncommittedWritesSorted(t *testing.T) {
	st := NewStore(testSchema())
	st.Insert(2, tup("C", c("a")))
	st.Insert(1, tup("C", c("b")))
	st.Insert(2, tup("C", c("c")))
	ws := st.UncommittedWrites()
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Seq >= ws[i].Seq {
			t.Fatalf("writes not sorted: %v", ws)
		}
	}
}

func TestStatsAndDump(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("Ithaca")))
	st.Load(tup("C", c("Syracuse")))
	st.DeleteContent(1, tup("C", c("Ithaca")))
	stats := st.Stats()
	if stats.Tuples != 2 || stats.Versions != 3 || stats.Visible != 1 {
		t.Fatalf("Stats = %+v", stats)
	}
	dump := st.Dump(1000)
	if dump != "C(Syracuse)" {
		t.Fatalf("Dump = %q", dump)
	}
	// Reader 0 still sees both.
	if got := st.Dump(0); !strings.Contains(got, "Ithaca") {
		t.Fatalf("Dump(0) = %q", got)
	}
}

func TestWriteRecString(t *testing.T) {
	st := NewStore(testSchema())
	_, rec, _, _ := st.Insert(1, tup("C", c("a")))
	if !strings.Contains(rec.String(), "insert C(a)") {
		t.Fatalf("String = %q", rec.String())
	}
	recs, _ := st.DeleteContent(1, tup("C", c("a")))
	if !strings.Contains(recs[0].String(), "delete C(a)") {
		t.Fatalf("String = %q", recs[0].String())
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" || OpModify.String() != "modify" {
		t.Fatal("Op.String wrong")
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("unknown op rendering wrong")
	}
}

// TestIDSpaceExhausted: a relation mints at most maxLocalID tuple IDs,
// the most a stripe index slot can name. With the counter set just
// below the cap, the last IDs are minted and indexed like any other —
// a single member in its slot, a list, an abort back to one member —
// and then a new tuple, a redo record or a checkpoint past the cap
// fails with ErrIDSpaceExhausted and leaves the store as it was, null
// floor included, with its indexes still matching its versions.
func TestIDSpaceExhausted(t *testing.T) {
	exhausted := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, ErrIDSpaceExhausted) {
			t.Fatalf("got %v, want ErrIDSpaceExhausted", err)
		}
	}
	t.Run("insert", func(t *testing.T) {
		st := NewStore(testSchema())
		s := st.stripes["R"]
		s.nextLocal = maxLocalID - 2
		low, err := st.Load(tup("R", c("a"), c("b")))
		if err != nil {
			t.Fatal(err)
		}
		top, _, _, err := st.Insert(1, tup("R", c("a"), c("c")))
		if err != nil {
			t.Fatal(err)
		}
		if top != s.base()|maxLocalID {
			t.Fatalf("last ID %#x, want counter %d in stripe %d", top, maxLocalID, s.idx)
		}
		if got := indexIDs(st, "R", 0, c("a")); !slices.Equal(got, []TupleID{low, top}) {
			t.Fatalf("candidates for a: %v, want [%d %d]", got, low, top)
		}
		if got := indexIDs(st, "R", 1, c("c")); !slices.Equal(got, []TupleID{top}) {
			t.Fatalf("candidates for c: %v, want [%d]", got, top)
		}
		before, fresh := st.Dump(1), st.nulls.Floor()
		_, _, _, err = st.Insert(1, tup("R", c("d"), n(fresh+100)))
		exhausted(t, err)
		if got := st.Dump(1); got != before || st.nulls.Floor() != fresh || s.nextLocal != maxLocalID || len(st.WritesOf(1)) != 1 {
			t.Fatalf("a refused insert changed the store: dump\n%s\nnull floor %d (was %d), counter %d, log %v", got, st.nulls.Floor(), fresh, s.nextLocal, st.WritesOf(1))
		}
		if id, _, inserted, err := st.Insert(1, tup("R", c("a"), c("c"))); err != nil || inserted || id != top {
			t.Fatalf("duplicate at the cap: %d %v %v, want the existing %d", id, inserted, err, top)
		}
		mustAudit(t, st)
		st.Abort(1)
		if got := indexIDs(st, "R", 0, c("a")); !slices.Equal(got, []TupleID{low}) {
			t.Fatalf("candidates for a after the abort: %v, want [%d]", got, low)
		}
		mustAudit(t, st)
		_, err = st.Load(tup("R", c("e"), c("f")))
		exhausted(t, err)
	})
	t.Run("redo", func(t *testing.T) {
		st := NewStore(testSchema())
		s := st.stripes["R"]
		mark := st.nulls.Floor()
		exhausted(t, st.ApplyRedo(WriteRec{ID: s.base() | (maxLocalID + 1), Rel: "R", Op: OpInsert, After: []model.Value{c("a"), n(mark + 50)}}))
		if st.Stats().Tuples != 0 || s.nextLocal != 0 || st.nulls.Floor() != mark {
			t.Fatalf("a refused redo changed the store: %+v, counter %d, null floor %d (was %d)", st.Stats(), s.nextLocal, st.nulls.Floor(), mark)
		}
		if err := st.ApplyRedo(WriteRec{ID: s.base() | maxLocalID, Rel: "R", Op: OpInsert, After: []model.Value{c("a"), c("b")}}); err != nil {
			t.Fatal(err)
		}
		mustAudit(t, st)
	})
	t.Run("checkpoint", func(t *testing.T) {
		st := NewStore(testSchema())
		s := st.stripes["R"]
		ok := CommittedTuple{ID: s.base() | 1, Rel: "R", Vals: []model.Value{c("a"), c("b")}}
		over := CommittedTuple{ID: s.base() | (maxLocalID + 1), Rel: "R", Vals: []model.Value{c("c"), c("d")}}
		exhausted(t, st.RestoreSnapshot(nil, 0, []int64{0, maxLocalID + 1, 0}))
		exhausted(t, st.RestoreSnapshot([]CommittedTuple{ok, over}, 0, nil))
		if st.Stats().Tuples != 0 || s.nextLocal != 0 {
			t.Fatalf("a refused checkpoint changed the store: %+v, counter %d", st.Stats(), s.nextLocal)
		}
		if err := st.RestoreSnapshot([]CommittedTuple{ok}, 0, []int64{0, maxLocalID, 0}); err != nil {
			t.Fatal(err)
		}
		_, err := st.Load(tup("R", c("e"), c("f")))
		exhausted(t, err)
		mustAudit(t, st)
	})
}
