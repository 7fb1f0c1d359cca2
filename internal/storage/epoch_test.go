package storage

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"youtopia/internal/model"
)

// seedCommitted loads writer-0 base data and commits a two-writer
// batch, leaving one uncommitted writer (9) and one tombstone behind —
// the mixed state every epoch test wants under its snapshot.
func seedCommitted(t *testing.T, b Backend) (x model.Value, deleted TupleID) {
	t.Helper()
	x = b.FreshNull()
	if _, err := b.Load(model.NewTuple("A", cv("base"), cv("b"))); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, b, 1, "A", cv("one"), cv("b"))
	mustInsert(t, b, 1, "B", cv("one"))
	mustInsert(t, b, 2, "C", x, cv("c"), cv("d"))
	id, _ := mustInsert(t, b, 2, "D", cv("gone"))
	if _, ok, err := b.Delete(2, id); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	mustInsert(t, b, 9, "E", cv("pending"), cv("p"))
	if err := b.CommitBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	return x, id
}

// TestEpochSnapReadSurface: every read method of a committed-state
// snapshot answers from committed versions only — writer 0 and the
// committed batch in, the tombstone and uncommitted writer 9 out.
func TestEpochSnapReadSurface(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		x, deleted := seedCommitted(t, b)
		sn := b.EpochSnap()
		ids := rowIDs(sn, "A", -1, model.Value{})
		if len(ids) != 2 {
			t.Fatalf("scan of A = %v, want 2 IDs", ids)
		}
		for _, id := range ids {
			if _, ok := sn.Get(id); !ok {
				t.Fatalf("committed tuple %d invisible to epoch snapshot", id)
			}
			if tp, ok := sn.GetTuple(id); !ok || tp.Rel != "A" {
				t.Fatalf("GetTuple(%d) = %v, %v", id, tp, ok)
			}
		}
		if _, ok := sn.Get(deleted); ok {
			t.Fatal("tombstoned tuple visible to epoch snapshot")
		}
		n := 0
		sn.ScanRel("A", func(TupleID, []model.Value) bool { n++; return true })
		if n != 2 || countRel(sn, "A") != 2 {
			t.Fatalf("ScanRel saw %d, ProbeRows %d, want 2", n, countRel(sn, "A"))
		}
		if got := rowIDs(sn, "A", 1, cv("b")); len(got) != 2 {
			t.Fatalf("value probe = %v, want 2 hits", got)
		}
		if !contains(sn, model.NewTuple("B", cv("one"))) {
			t.Fatal("content lookup missed a committed tuple")
		}
		if contains(sn, model.NewTuple("E", cv("pending"), cv("p"))) {
			t.Fatal("content lookup found an uncommitted tuple")
		}
		if got := sn.TuplesWithNull(x); len(got) != 1 {
			t.Fatalf("TuplesWithNull = %v, want 1 hit", got)
		}
		if got := sn.MoreSpecificInto(model.NewTuple("C", b.FreshNull(), cv("c"), cv("d")), nil); len(got) != 1 {
			t.Fatalf("MoreSpecificInto = %v, want 1 hit", got)
		}
		if countRel(sn, "E") != 0 {
			t.Fatal("uncommitted write visible to epoch snapshot")
		}
		facts := sn.VisibleFacts()
		if len(facts["A"]) != 2 || len(facts["E"]) != 0 {
			t.Fatalf("VisibleFacts = %v", facts)
		}
	})
}

// TestCommittedSnapshotMatchesLockedOracle: the serialized committed
// cut must stay identical to a locked version-chain walk — same
// tuples, same order, same tombstones, same null floor.
func TestCommittedSnapshotMatchesLockedOracle(t *testing.T) {
	st := NewStore(confSchema())
	seedCommitted(t, st)

	got, gotFloor := st.Epoch().Serialize()

	// The oracle re-derives the committed instance: every stripe's
	// tuples in ID order, topmost committed version.
	var want []CommittedTuple
	st.rlock()
	for _, s := range st.byIdx {
		for p, id := range s.members() {
			vs := s.chain(p)
			for i := len(vs) - 1; i >= 0; i-- {
				v := &vs[i]
				if !st.isCommitted(v.writer) {
					continue
				}
				ct := CommittedTuple{ID: id, Rel: s.rel, Deleted: v.vals == nil}
				if v.vals != nil {
					ct.Vals = append([]model.Value(nil), s.valsOf(v)...)
				}
				want = append(want, ct)
				break
			}
		}
	}
	st.runlock()
	wantFloor := st.nulls.Floor()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed cut diverged from locked oracle:\n%v\nvs\n%v", got, want)
	}
	if gotFloor != wantFloor {
		t.Fatalf("null floor = %d, want %d", gotFloor, wantFloor)
	}
}

// TestEpochCommitCounterPairsWithHook: the epoch's Commits counter
// advances exactly once per commit batch the durability hook sees —
// the invariant the WAL checkpointer's batch pairing stands on.
// Write-free batches reach neither the hook nor the counter.
func TestEpochCommitCounterPairsWithHook(t *testing.T) {
	st := NewStore(confSchema())
	hookCalls := 0
	st.SetCommitHook(func([]int, []WriteRec) (CommitAck, error) {
		hookCalls++
		return nil, nil
	})
	check := func(stage string) {
		if got := st.Epoch().Commits(); got != int64(hookCalls) {
			t.Fatalf("%s: epoch Commits = %d, hook saw %d batches", stage, got, hookCalls)
		}
	}
	check("fresh store")
	mustInsert(t, st, 1, "A", cv("a"), cv("b"))
	if err := st.Commit(1); err != nil {
		t.Fatal(err)
	}
	check("after first batch")
	// A write-free commit: no hook call, no counter advance.
	if err := st.Commit(7); err != nil {
		t.Fatal(err)
	}
	check("after write-free batch")
	mustInsert(t, st, 2, "B", cv("x"))
	mustInsert(t, st, 3, "C", cv("1"), cv("2"), cv("3"))
	if err := st.CommitBatch([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	check("after two-writer batch")
}

// TestEpochRefreshAfterLoad: writer-0 mutations (bootstrap loads,
// recovery replay) are committed the moment they land, so a
// committed-state snapshot sees them with no commit batch.
func TestEpochRefreshAfterLoad(t *testing.T) {
	onStore(t, func(t *testing.T, b Backend) {
		if _, err := b.Load(model.NewTuple("A", cv("l1"), cv("x"))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Load(model.NewTuple("B", cv("l2"))); err != nil {
			t.Fatal(err)
		}
		sn := b.EpochSnap()
		if countRel(sn, "A") != 1 || countRel(sn, "B") != 1 {
			t.Fatalf("epoch missed writer-0 loads: A=%d B=%d", countRel(sn, "A"), countRel(sn, "B"))
		}
	})
}

// TestEpochConsistentCutUnderCommits is the cut contract under fire.
// Writers commit two-writer batches, each writer inserting one key into
// BOTH relations of a pair, while readers spin on Epoch. The records of
// every cut a reader gets must be a cut no batch straddles (each writer
// goroutine's keys appear equally often in both relations of its
// pair), must pair exactly with its batch count (four tuples per
// counted batch), and Commits must never run backwards for one reader.
func TestEpochConsistentCutUnderCommits(t *testing.T) {
	schema := model.NewSchema()
	for i := 0; i < 6; i++ {
		schema.MustAddRelation(fmt.Sprintf("P%d", i), "g", "k")
	}
	// The pairs overlap, so commits contend with each other as well as
	// with the readers.
	pairs := [][2]string{{"P0", "P2"}, {"P2", "P4"}, {"P1", "P3"}, {"P3", "P5"}, {"P0", "P4"}}
	// Each writer commits at least minBatches batches, and keeps going
	// (up to a cap that only bounds a broken run) until the readers have
	// checked wantEpochs distinct epochs, so the test cannot pass by the
	// writers finishing before a reader is scheduled.
	minBatches, wantEpochs := 200, int64(100)
	if testing.Short() {
		minBatches, wantEpochs = 50, 20
	}
	maxBatches := 100 * minBatches
	t.Run("store", func(t *testing.T) {
		st := NewStore(schema)
		var stop atomic.Bool
		var distinct atomic.Int64  // epochs readers saw Commits advance in
		var committed atomic.Int64 // batches the writers committed
		var readers, writers sync.WaitGroup
		for r := 0; r < 3; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var last int64
				for !stop.Load() {
					ep := st.Epoch()
					if ep.Commits() < last {
						t.Errorf("Commits ran backwards: %d after %d", ep.Commits(), last)
						return
					}
					if ep.Commits() > last {
						distinct.Add(1)
					}
					last = ep.Commits()
					tuples, _ := ep.Serialize()
					if int64(len(tuples)) != 4*ep.Commits() {
						t.Errorf("cut holds %d tuples but counts %d batches of 4", len(tuples), ep.Commits())
						return
					}
					keys := make(map[[2]string]int) // (relation, writer key) -> tuples
					for _, ct := range tuples {
						keys[[2]string{ct.Rel, ct.Vals[0].String()}]++
					}
					for g, p := range pairs {
						key := cv(fmt.Sprintf("g%d", g)).String()
						if a, z := keys[[2]string{p[0], key}], keys[[2]string{p[1], key}]; a != z {
							t.Errorf("torn cut: writer %d has %d keys in %s but %d in %s", g, a, p[0], z, p[1])
							return
						}
					}
					runtime.Gosched() // few cores: let a writer in between passes
				}
			}()
		}
		for g, p := range pairs {
			writers.Add(1)
			go func(g int, p [2]string) {
				defer writers.Done()
				for i := 0; i < maxBatches && (i < minBatches || distinct.Load() < wantEpochs); i++ {
					batch := []int{1 + 2*(g+len(pairs)*i), 2 + 2*(g+len(pairs)*i)}
					for j, w := range batch {
						vals := []model.Value{cv(fmt.Sprintf("g%d", g)), cv(fmt.Sprintf("%d-%d", i, j))}
						for _, rel := range p {
							if _, _, _, err := st.Insert(w, model.NewTuple(rel, vals...)); err != nil {
								t.Error(err)
								return
							}
						}
					}
					if err := st.CommitBatch(batch); err != nil {
						t.Error(err)
						return
					}
					committed.Add(1)
				}
			}(g, p)
		}
		writers.Wait()
		stop.Store(true)
		readers.Wait()
		total := st.Epoch().Commits()
		if total != committed.Load() {
			t.Fatalf("final epochs count %d batches, writers committed %d", total, committed.Load())
		}
		if distinct.Load() < wantEpochs {
			t.Fatalf("readers checked only %d distinct epochs across %d batches", distinct.Load(), total)
		}
	})
}
