package storage

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"youtopia/internal/model"
)

// The backend conformance suite: the storage contract the engine
// layers rely on, exercised through the Backend interface on a fresh
// *Store.

// confSchema declares five relations of mixed arity, so cross-relation
// operations span several stripes.
func confSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("A", "x", "y")
	s.MustAddRelation("B", "x")
	s.MustAddRelation("C", "x", "y", "z")
	s.MustAddRelation("D", "x")
	s.MustAddRelation("E", "x", "y")
	return s
}

// onStore runs a contract case as the "store" subtest on a fresh
// store over confSchema.
func onStore(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Helper()
	t.Run("store", func(t *testing.T) { fn(t, testStore(confSchema())) })
}

func cv(s string) model.Value { return model.Const(s) }

func mustInsert(t *testing.T, b Backend, writer int, rel string, vals ...model.Value) (TupleID, WriteRec) {
	t.Helper()
	id, rec, ins, err := b.Insert(writer, model.NewTuple(rel, vals...))
	if err != nil {
		t.Fatal(err)
	}
	if !ins {
		t.Fatalf("insert of %s %v no-op'ed", rel, vals)
	}
	return id, rec
}

// TestConformanceSnapshotIsolation: a higher-numbered writer's
// versions are invisible to lower-numbered readers; the maximal
// visible version in (writer, seq) order wins.
func TestConformanceSnapshotIsolation(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		id3, _ := mustInsert(t, b, 3, "A", cv("u"), cv("v"))
		if _, ok := b.Snap(2).Get(id3); ok {
			t.Fatal("writer 3's tuple visible to reader 2")
		}
		if _, ok := b.Snap(3).Get(id3); !ok {
			t.Fatal("writer 3's tuple invisible to reader 3")
		}
		// A delete by writer 5 shadows the insert for readers >= 5 only.
		if _, ok, err := b.Delete(5, id3); err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
		if _, ok := b.Snap(4).Get(id3); !ok {
			t.Fatal("delete by 5 visible to reader 4")
		}
		if _, ok := b.Snap(5).Get(id3); ok {
			t.Fatal("delete by 5 invisible to reader 5")
		}
	})
}

// TestConformanceAbortVisibility: aborting a writer removes every one
// of its versions atomically, across relations, and
// repairs the indexes.
func TestConformanceAbortVisibility(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		idA, _ := mustInsert(t, b, 2, "A", cv("a"), cv("b"))
		idB, _ := mustInsert(t, b, 2, "B", cv("a"))
		idD, _ := mustInsert(t, b, 2, "D", cv("d"))
		keep, _ := mustInsert(t, b, 1, "B", cv("keep"))
		if got := len(b.UncommittedWritesOf("B")); got != 2 {
			t.Fatalf("UncommittedWritesOf(B) = %d records, want 2", got)
		}
		b.Abort(2)
		snap := b.Snap(1 << 30)
		for _, id := range []TupleID{idA, idB, idD} {
			if _, ok := snap.Get(id); ok {
				t.Fatalf("aborted tuple %d still visible", id)
			}
		}
		if _, ok := snap.Get(keep); !ok {
			t.Fatal("abort of writer 2 removed writer 1's tuple")
		}
		if got := b.UncommittedWritersOf("B"); len(got) != 1 || got[0] != 1 {
			t.Fatalf("UncommittedWritersOf(B) = %v, want [1]", got)
		}
		if ws := b.WritesOf(2); len(ws) != 0 {
			t.Fatalf("aborted writer still has %d logged writes", len(ws))
		}
	})
}

// TestConformanceCommitOrdering: CommitBatch marks every writer
// committed, retires their logs everywhere, and leaves their versions
// in place; sequence numbers stay totally ordered across relations.
func TestConformanceCommitOrdering(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		var lastSeq int64
		var ids []TupleID
		for i, rel := range []string{"A", "E", "C"} {
			vals := make([]model.Value, b.Schema().Arity(rel))
			for j := range vals {
				vals[j] = cv(fmt.Sprintf("w%d-%d", i, j))
			}
			id, rec := mustInsert(t, b, i+1, rel, vals...)
			ids = append(ids, id)
			if rec.Seq <= lastSeq {
				t.Fatalf("sequence not increasing across relations: %d after %d", rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			if got := b.Snap(1 << 30).CurrentSeq(); got != rec.Seq {
				t.Fatalf("after a write into %s, the snapshot's CurrentSeq = %d, want %d", rel, got, rec.Seq)
			}
		}
		if b.CurrentSeq() != lastSeq {
			t.Fatalf("CurrentSeq = %d, want %d", b.CurrentSeq(), lastSeq)
		}
		if err := b.CommitBatch([]int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if _, ok := b.EpochSnap().Get(id); !ok {
				t.Fatalf("writer %d not committed", i+1)
			}
		}
		if uw := b.UncommittedWrites(); len(uw) != 0 {
			t.Fatalf("%d uncommitted writes survive the commit", len(uw))
		}
		if got := b.Stats().Visible; got != 3 {
			t.Fatalf("Visible = %d, want 3", got)
		}
	})
}

// TestConformanceHookMergeOrder: the durability hook receives one call
// per batch with ascending writers and the write records merged in
// (writer, seq) order; batches with no records skip it entirely.
func TestConformanceHookMergeOrder(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		// Interleave two writers across relations so the per-writer
		// log merge has real work.
		mustInsert(t, b, 2, "A", cv("w2a"), cv("x"))
		mustInsert(t, b, 1, "A", cv("w1a"), cv("x"))
		mustInsert(t, b, 2, "B", cv("w2b"))
		mustInsert(t, b, 1, "C", cv("w1c"), cv("y"), cv("z"))
		var calls [][]WriteRec
		b.SetCommitHook(func(writers []int, recs []WriteRec) (CommitAck, error) {
			if len(recs) == 0 {
				t.Fatal("hook called with an empty batch")
			}
			if !reflect.DeepEqual(writers, []int{1, 2}) {
				t.Fatalf("hook writers = %v, want [1 2]", writers)
			}
			calls = append(calls, append([]WriteRec(nil), recs...))
			return nil, nil
		})
		if err := b.CommitBatch([]int{2, 1}); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 1 {
			t.Fatalf("hook called %d times for one batch", len(calls))
		}
		total := 0
		for _, recs := range calls {
			total += len(recs)
			for i := 1; i < len(recs); i++ {
				a, b := recs[i-1], recs[i]
				if a.Writer > b.Writer || (a.Writer == b.Writer && a.Seq >= b.Seq) {
					t.Fatalf("batch not in (writer, seq) order: %v before %v", a, b)
				}
			}
		}
		if total != 4 {
			t.Fatalf("hook saw %d records across %d calls, want 4", total, len(calls))
		}
		// A commit of a writer with no writes must not reach the hook.
		calls = nil
		if err := b.Commit(7); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 0 {
			t.Fatal("write-free commit reached the durability hook")
		}
	})
}

// TestConformanceHookVeto: a hook error vetoes the commit — the
// writers stay uncommitted, their logs stay live.
func TestConformanceHookVeto(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		id, _ := mustInsert(t, b, 1, "A", cv("v"), cv("v"))
		b.SetCommitHook(func([]int, []WriteRec) (CommitAck, error) {
			return nil, fmt.Errorf("disk on fire")
		})
		if err := b.Commit(1); err == nil {
			t.Fatal("vetoed commit reported success")
		}
		if _, ok := b.EpochSnap().Get(id); ok {
			t.Fatal("vetoed writer's insert is in the committed state")
		}
		if len(b.UncommittedWritesOf("A")) != 1 {
			t.Fatal("vetoed writer's log was retired")
		}
	})
}

// TestConformanceReplaceNullSpansRelations: a null replacement
// rewrites every occurrence across relations — and therefore across
// stripes — in one atomic operation, with set-semantics collapse.
func TestConformanceReplaceNullSpansRelations(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		x := b.FreshNull()
		mustInsert(t, b, 1, "A", x, cv("k"))
		mustInsert(t, b, 1, "B", x)
		mustInsert(t, b, 1, "D", x)
		// A already holds the rewritten content: the A-occurrence must
		// collapse instead of duplicating.
		mustInsert(t, b, 1, "A", cv("c"), cv("k"))
		recs, err := b.ReplaceNull(1, x, cv("c"))
		if err != nil {
			t.Fatal(err)
		}
		ops := map[Op]int{}
		for _, r := range recs {
			ops[r.Op]++
		}
		if ops[OpModify] != 2 || ops[OpDelete] != 1 || len(recs) != 3 {
			t.Fatalf("ReplaceNull records = %v (modify %d, delete %d)", recs, ops[OpModify], ops[OpDelete])
		}
		snap := b.Snap(1 << 30)
		if ids := snap.TuplesWithNull(x); len(ids) != 0 {
			t.Fatalf("null %s survives in %v", x, ids)
		}
		if !contains(snap, model.NewTuple("B", cv("c"))) {
			t.Fatal("B-occurrence not rewritten")
		}
	})
}

// TestConformanceNullProbe: a probe for a labeled null reads the null
// index, not a column's; in every column of every relation, and for
// every reader, it must return what a scan filtered by the value
// returns. The nulls sit in several relations and columns, twice in
// one tuple, in more tuples of one relation than a page holds, and in
// versions that a replacement, a delete, an abort and a commit add and
// take away.
func TestConformanceNullProbe(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		x, y, z := b.FreshNull(), b.FreshNull(), b.FreshNull()
		mustInsert(t, b, 1, "A", x, cv("k"))
		mustInsert(t, b, 1, "A", y, x)
		mustInsert(t, b, 1, "B", x)
		mustInsert(t, b, 1, "C", cv("c"), x, x)
		mustInsert(t, b, 1, "E", y, cv("e"))
		for i := range 40 {
			mustInsert(t, b, 1, "E", cv(fmt.Sprint("e", i)), z)
		}
		idD, _ := mustInsert(t, b, 1, "D", z)
		readers := []int{0, 1, 2, 3, 1 << 30}
		check := func(step string) {
			t.Helper()
			for _, r := range readers {
				sn := b.Snap(r)
				for _, rel := range b.Schema().SortedNames() {
					for col := range b.Schema().Arity(rel) {
						for _, v := range []model.Value{x, y, z, cv("k")} {
							if err := probeMatchesScan(sn, rel, col, v); err != nil {
								t.Fatalf("%s, reader %d: %v", step, r, err)
							}
						}
					}
				}
			}
		}
		check("inserts")
		if err := b.CommitBatch([]int{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReplaceNull(2, x, y); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Delete(3, idD); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if _, err := b.ReplaceNull(3, z, cv("k")); err != nil {
			t.Fatal(err)
		}
		check("replacements")
		b.Abort(3)
		check("abort")
		if err := b.CommitBatch([]int{2}); err != nil {
			t.Fatal(err)
		}
		check("commit")
	})
}

// probeMatchesScan reports how ProbeRows for v in column col of rel
// differs from a scan of rel filtered by that column's value.
func probeMatchesScan(sn *Snapshot, rel string, col int, v model.Value) error {
	var want []TupleID
	sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
		if vals[col] == v {
			want = append(want, id)
		}
		return true
	})
	if got := rowIDs(sn, rel, col, v); !slices.Equal(got, want) {
		return fmt.Errorf("probe for %s in %s column %d gives %v, a filtered scan %v", v, rel, col, got, want)
	}
	return nil
}

// TestConformanceSnapshotFilters: ceilings and windows — the
// reconstruction machinery the conflict checks rely on.
func TestConformanceSnapshotFilters(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		idA, _ := mustInsert(t, b, 1, "A", cv("early"), cv("x"))
		ceil := b.Snap(1 << 30).CurrentSeq()
		idB, recB := mustInsert(t, b, 2, "B", cv("late"))
		idA2, _ := mustInsert(t, b, 2, "A", cv("later"), cv("y"))

		past := b.Snap(1 << 30)
		past.SetCeiling(ceil)
		if _, ok := past.Get(idA); !ok {
			t.Fatal("ceiling hides a pre-ceiling version")
		}
		if _, ok := past.Get(idB); ok {
			t.Fatal("ceiling admits a post-ceiling version")
		}
		if _, ok := past.Get(idA2); ok {
			t.Fatal("ceiling admits a post-ceiling version in a ceilinged relation")
		}

		// The window admits other writers' post-ceiling writes up to the
		// bound, in every relation, but never the reader's own.
		reader3 := b.Snap(3)
		reader3.SetWindow(ceil, recB.Seq)
		if _, ok := reader3.Get(idB); !ok {
			t.Fatal("window excludes an admitted interference write")
		}
		if _, ok := reader3.Get(idA2); ok {
			t.Fatal("window admits a write past its upper bound")
		}
	})
}

// TestConformanceDumpIdentity: after aborts, a cross-relation
// replacement and a batch commit, Dump renders exactly the surviving
// committed facts — the rendering recovery and the goldens compare.
func TestConformanceDumpIdentity(t *testing.T) {
	b := testStore(confSchema())
	x := b.FreshNull()
	if _, err := b.Load(model.NewTuple("A", cv("base"), cv("b"))); err != nil {
		t.Fatal(err)
	}
	mustInsertP(b, 1, "A", cv("one"), cv("b"))
	mustInsertP(b, 1, "B", cv("one"))
	mustInsertP(b, 2, "C", x, cv("c"), cv("d"))
	mustInsertP(b, 2, "E", x, cv("e"))
	mustInsertP(b, 3, "D", cv("gone"))
	if _, err := b.ReplaceNull(2, x, cv("fix")); err != nil {
		t.Fatal(err)
	}
	b.Abort(3)
	if err := b.CommitBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	const want = `A(base, b)
A(one, b)
B(one)
C(fix, c, d)
E(fix, e)`
	if got := b.Dump(1 << 30); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
}

func mustInsertP(b Backend, writer int, rel string, vals ...model.Value) {
	if _, _, ins, err := b.Insert(writer, model.NewTuple(rel, vals...)); err != nil || !ins {
		panic(fmt.Sprintf("insert %s: ins=%v err=%v", rel, ins, err))
	}
}

// TestConformanceEpochCommittedView: an epoch snapshot serves exactly
// the committed instance — the state an identical backend shows after
// aborting every uncommitted writer.
func TestConformanceEpochCommittedView(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		seedCommitted(t, b)
		oracle := testStore(confSchema())
		seedCommitted(t, oracle)
		oracle.Abort(9)

		got := b.EpochSnap().VisibleFacts()
		want := oracle.Snap(1 << 30).VisibleFacts()
		// Null labels differ across instances only if mint order did;
		// the op sequence is identical, so direct equality holds.
		if !reflect.DeepEqual(canonFacts(got), canonFacts(want)) {
			t.Fatalf("epoch view diverged from committed oracle:\n%v\nvs\n%v", got, want)
		}
	})
}

// canonFacts sorts each relation's tuple set by key so VisibleFacts
// maps compare independent of scan order.
func canonFacts(m map[string][]model.Tuple) map[string][]string {
	out := make(map[string][]string, len(m))
	for rel, ts := range m {
		keys := make([]string, len(ts))
		for i, tu := range ts {
			keys[i] = tu.Key()
		}
		sort.Strings(keys)
		out[rel] = keys
	}
	return out
}

// TestConformanceEpochDumpIdentity: serializing the epoch (the
// checkpoint path) yields byte-identical content, tuple IDs included,
// to a live scan of the committed state — the recovery-identity
// guarantee the wait-free checkpoint inherits.
func TestConformanceEpochDumpIdentity(t *testing.T) {
	render := func(sn *Snapshot) string {
		var out string
		for _, rel := range confSchema().SortedNames() {
			sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
				out += fmt.Sprintf("%s/%d%v\n", rel, id, vals)
				return true
			})
		}
		return out
	}
	b := testStore(confSchema())
	seedCommitted(t, b)
	oracle := testStore(confSchema())
	seedCommitted(t, oracle)
	oracle.Abort(9)
	got, want := render(b.EpochSnap()), render(oracle.Snap(1<<30))
	if got == "" || got != want {
		t.Fatalf("epoch dump differs from the committed live scan:\n%s\nvs\n%s", got, want)
	}
}
