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

// TestSnapshotReadLockFree pins the epoch layer's lock contract. The
// first snapshot minted after a commit read-locks exactly the stripes
// that commit wrote — never a write lock, never an unwritten stripe —
// and from then until the next commit, minting a snapshot and serving
// every read method from it acquires zero stripe mutexes. The probe
// counts every acquisition in the package, so the assertions are
// structural, not statistical. The live-snapshot phase at the end
// proves the probe actually counts.
func TestSnapshotReadLockFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		x, deleted := seedCommitted(t, b)
		// Nobody has read committed state yet, so the first snapshot
		// builds every stripe the load and the batch touched.
		warm := b.EpochSnap()
		if warm.CountRel("A") != 2 {
			t.Fatalf("warm epoch CountRel(A) = %d, want 2", warm.CountRel("A"))
		}

		// A commit that wrote two of the five stripes: the next snapshot
		// takes those two read locks and nothing else.
		mustInsert(t, b, 3, "B", cv("three"))
		mustInsert(t, b, 3, "D", cv("three"))
		if err := b.Commit(3); err != nil {
			t.Fatal(err)
		}
		LockProbeArm()
		after := b.EpochSnap()
		writes := LockProbeWriteLocks()
		if got := LockProbeDisarm(); got != 2 || writes != 0 {
			t.Fatalf("first snapshot after a two-stripe commit took %d stripe locks (%d write), want 2 read locks", got, writes)
		}
		if after.CountRel("B") != 2 || after.CountRel("D") != 1 || warm.CountRel("B") != 1 {
			t.Fatalf("post-commit epoch: B=%d D=%d (before: B=%d), want 2, 1 (1)",
				after.CountRel("B"), after.CountRel("D"), warm.CountRel("B"))
		}

		LockProbeArm()
		sn := b.EpochSnap()
		ids := sn.RelIDs("A")
		if len(ids) != 2 {
			t.Fatalf("RelIDs(A) = %v, want 2 IDs", ids)
		}
		for _, id := range ids {
			if _, ok := sn.Get(id); !ok {
				t.Fatalf("committed tuple %d invisible to epoch snapshot", id)
			}
			if _, ok := sn.GetTuple(id); !ok {
				t.Fatalf("GetTuple(%d) failed", id)
			}
			if rel, ok := sn.Rel(id); !ok || rel != "A" {
				t.Fatalf("Rel(%d) = %q, %v", id, rel, ok)
			}
		}
		if _, ok := sn.Get(deleted); ok {
			t.Fatal("tombstoned tuple visible to epoch snapshot")
		}
		n := 0
		sn.ScanRel("A", func(TupleID, []model.Value) bool { n++; return true })
		if n != 2 || sn.CountRel("A") != 2 {
			t.Fatalf("ScanRel saw %d, CountRel %d, want 2", n, sn.CountRel("A"))
		}
		if got := sn.CandidatesByValue("A", 1, cv("b"), new([1]TupleID)); len(got) != 2 {
			t.Fatalf("CandidatesByValue = %v, want 2 hits", got)
		}
		if !sn.ContainsContent(model.NewTuple("B", cv("one"))) {
			t.Fatal("LookupContent missed a committed tuple")
		}
		if got := sn.TuplesWithNull(x); len(got) != 1 {
			t.Fatalf("TuplesWithNull = %v, want 1 hit", got)
		}
		if got := sn.MoreSpecific(model.NewTuple("C", b.FreshNull(), cv("c"), cv("d"))); len(got) != 1 {
			t.Fatalf("MoreSpecific = %v, want 1 hit", got)
		}
		if sn.CountRel("E") != 0 {
			t.Fatal("uncommitted write visible to epoch snapshot")
		}
		facts := sn.VisibleFacts()
		if len(facts["A"]) != 2 || len(facts["E"]) != 0 {
			t.Fatalf("VisibleFacts = %v", facts)
		}
		if got := LockProbeDisarm(); got != 0 {
			t.Fatalf("epoch snapshot reads acquired %d stripe mutexes, want 0", got)
		}

		// Control: the same reads through a live snapshot must trip the
		// probe, or the zero above proves nothing.
		LockProbeArm()
		live := b.Snap(1 << 30)
		if live.CountRel("A") != 2 {
			t.Fatal("live snapshot lost data")
		}
		if got := LockProbeDisarm(); got == 0 {
			t.Fatal("lock probe counted nothing on the live read path")
		}
	})
}

// TestEpochSnapshotFrozen: an epoch snapshot is a frozen view — later
// commits publish new epochs without changing it — while a fresh
// snapshot sees the new state.
func TestEpochSnapshotFrozen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		seedCommitted(t, b)
		old := b.EpochSnap()
		oldA := old.CountRel("A")

		mustInsert(t, b, 11, "A", cv("newer"), cv("n"))
		if err := b.CommitBatch([]int{11}); err != nil {
			t.Fatal(err)
		}
		if got := old.CountRel("A"); got != oldA {
			t.Fatalf("frozen snapshot changed: CountRel(A) %d -> %d", oldA, got)
		}
		if old.ContainsContent(model.NewTuple("A", cv("newer"), cv("n"))) {
			t.Fatal("post-snapshot commit visible in the frozen view")
		}
		fresh := b.EpochSnap()
		if got := fresh.CountRel("A"); got != oldA+1 {
			t.Fatalf("fresh epoch CountRel(A) = %d, want %d", got, oldA+1)
		}
	})
}

// TestEpochSnapshotFilterPanics: the visibility filter builders are
// live-snapshot machinery; on an epoch snapshot they must fail loudly
// instead of silently returning committed-only answers.
func TestEpochSnapshotFilterPanics(t *testing.T) {
	b := NewStore(confSchema())
	sn := b.EpochSnap()
	for name, fn := range map[string]func(){
		"SetMask":        func() { sn.SetMask(1, 1) },
		"WithCeiling":    func() { sn.WithCeiling(1) },
		"WithWindow":     func() { sn.WithWindow(1, 2) },
		"SetRelCeilings": func() { sn.SetRelCeilings(nil) },
		"SetRelWindow":   func() { sn.SetRelWindow(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an epoch snapshot did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCommittedSnapshotMatchesLockedOracle: the epoch-serialized
// checkpoint extraction must stay byte-identical to the locked
// version-chain walk it replaced — same tuples, same order, same
// tombstones, same null floor.
func TestCommittedSnapshotMatchesLockedOracle(t *testing.T) {
	st := NewStore(confSchema())
	seedCommitted(t, st)

	got, gotFloor := st.CommittedSnapshot()

	// The oracle re-derives the committed instance the pre-epoch way:
	// every stripe's tuples in ID order, topmost committed version.
	var want []CommittedTuple
	st.rlockAll()
	for _, s := range st.byIdx {
		for _, id := range s.ids {
			tr := s.tuples[id]
			for i := len(tr.versions) - 1; i >= 0; i-- {
				v := &tr.versions[i]
				if !st.isCommitted(v.writer) {
					continue
				}
				ct := CommittedTuple{ID: id, Rel: s.rel, Deleted: v.deleted}
				if !v.deleted {
					ct.Vals = append([]model.Value(nil), v.vals...)
				}
				want = append(want, ct)
				break
			}
		}
	}
	st.runlockAll()
	wantFloor := st.nulls.Peek() - 1

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CommittedSnapshot diverged from locked oracle:\n%v\nvs\n%v", got, want)
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
// recovery replay) dirty stripes without publishing; the next Epoch
// call must repair the published record on demand.
func TestEpochRefreshAfterLoad(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		if _, err := b.Load(model.NewTuple("A", cv("l1"), cv("x"))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Load(model.NewTuple("B", cv("l2"))); err != nil {
			t.Fatal(err)
		}
		sn := b.EpochSnap()
		if sn.CountRel("A") != 1 || sn.CountRel("B") != 1 {
			t.Fatalf("epoch missed writer-0 loads: A=%d B=%d", sn.CountRel("A"), sn.CountRel("B"))
		}
	})
}

// TestNoReaderNoRebuild: commits build nothing for readers. N commits
// with no Epoch call leave the rebuild and publication counters where
// they were; the one read that follows rebuilds only the stripes those
// commits wrote, once, however many commits there were.
func TestNoReaderNoRebuild(t *testing.T) {
	st := NewStore(confSchema())
	st.Epoch() // settle the fresh store
	rebuilds, publishes := obsEpochRebuilds.Value(), obsEpochPublish.Value()
	for w := 1; w <= 20; w++ {
		mustInsert(t, st, w, "A", cv(fmt.Sprint(w)), cv("v"))
		mustInsert(t, st, w, "C", cv(fmt.Sprint(w)), cv("v"), cv("w"))
		if err := st.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	if r, p := obsEpochRebuilds.Value()-rebuilds, obsEpochPublish.Value()-publishes; r != 0 || p != 0 {
		t.Fatalf("20 unread commits rebuilt %d stripe records and published %d epochs, want 0 and 0", r, p)
	}
	ep := st.Epoch()
	if r, p := obsEpochRebuilds.Value()-rebuilds, obsEpochPublish.Value()-publishes; r != 2 || p != 1 {
		t.Fatalf("first read rebuilt %d stripe records and published %d epochs, want 2 and 1", r, p)
	}
	if ep.Commits() != 20 || ep.rels[st.stripes["A"].idx].live != 20 || ep.rels[st.stripes["C"].idx].live != 20 {
		t.Fatalf("epoch after 20 commits: Commits=%d", ep.Commits())
	}
	if st.Epoch() != ep {
		t.Fatal("a second read with no commit in between built a new epoch")
	}
}

// TestEpochConsistentCutUnderCommits is the epoch contract under fire.
// Writers commit two-writer batches, each writer inserting one key into
// BOTH relations of a pair, while readers spin on Epoch. Every epoch a
// reader gets, from the optimistic path or the lock-everything fallback,
// must be a cut no batch straddles (each writer goroutine's keys appear
// equally often in both relations of its pair), must pair exactly with
// its batch count (four live tuples per counted batch), and Commits
// must never run backwards for one reader. A ShardedStore promises this
// per shard, so its pairs sit inside one shard and each shard's epoch is
// checked on its own.
func TestEpochConsistentCutUnderCommits(t *testing.T) {
	schema := model.NewSchema()
	for i := 0; i < 6; i++ {
		schema.MustAddRelation(fmt.Sprintf("P%d", i), "g", "k")
	}
	// Same-parity pairs share a shard under two shards; they overlap, so
	// commits contend with each other as well as with the readers.
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
	for _, tc := range []struct {
		name  string
		build func() (Backend, []*Store)
	}{
		{"store", func() (Backend, []*Store) { st := NewStore(schema); return st, []*Store{st} }},
		{"sharded-2", func() (Backend, []*Store) { ss := NewSharded(schema, 2); return ss, ss.Shards() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, cuts := tc.build()
			var stop atomic.Bool
			var distinct atomic.Int64  // epochs readers saw Commits advance in
			var committed atomic.Int64 // batches the writers committed
			var readers, writers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					last := make([]int64, len(cuts))
					for !stop.Load() {
						for c, st := range cuts {
							ep := st.Epoch()
							if ep.Commits() < last[c] {
								t.Errorf("Commits ran backwards: %d after %d", ep.Commits(), last[c])
								return
							}
							if ep.Commits() > last[c] {
								distinct.Add(1)
							}
							last[c] = ep.Commits()
							live := 0
							for _, e := range ep.rels {
								live += e.live
							}
							if int64(live) != 4*ep.Commits() {
								t.Errorf("epoch holds %d tuples but counts %d batches of 4", live, ep.Commits())
								return
							}
							sn := &Snapshot{stores: st.self, reader: maxReader, epoch: ep.rels}
							for g, p := range pairs {
								key := cv(fmt.Sprintf("g%d", g))
								if a, z := len(sn.CandidatesByValue(p[0], 0, key, new([1]TupleID))), len(sn.CandidatesByValue(p[1], 0, key, new([1]TupleID))); a != z {
									t.Errorf("torn epoch: writer %d has %d keys in %s but %d in %s", g, a, p[0], z, p[1])
									return
								}
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
								if _, _, _, err := b.Insert(w, model.NewTuple(rel, vals...)); err != nil {
									t.Error(err)
									return
								}
							}
						}
						if err := b.CommitBatch(batch); err != nil {
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
			total := int64(0)
			for _, st := range cuts {
				total += st.Epoch().Commits()
			}
			if total != committed.Load() {
				t.Fatalf("final epochs count %d batches, writers committed %d", total, committed.Load())
			}
			if distinct.Load() < wantEpochs {
				t.Fatalf("readers checked only %d distinct epochs across %d batches", distinct.Load(), total)
			}
		})
	}
}

// TestEpochRefreshFallback: a refresh that keeps losing its validation
// to commits on stripes it did not lock gives up being optimistic and
// read-locks every stripe. Forced here by asking refreshEpoch for the
// fallback directly; the result must equal the optimistic one.
func TestEpochRefreshFallback(t *testing.T) {
	st := NewStore(confSchema())
	seedCommitted(t, st)
	cached := st.epoch.Load()
	LockProbeArm()
	all := st.refreshEpoch(cached, true)
	writes := LockProbeWriteLocks()
	if got := LockProbeDisarm(); got != int64(len(st.byIdx)) || writes != 0 {
		t.Fatalf("fallback refresh took %d stripe locks (%d write), want %d read locks", got, writes, len(st.byIdx))
	}
	opt := st.Epoch()
	gotT, gotFloor := all.Serialize()
	wantT, wantFloor := opt.Serialize()
	if !reflect.DeepEqual(gotT, wantT) || gotFloor != wantFloor || all.Commits() != opt.Commits() {
		t.Fatalf("fallback epoch differs from optimistic epoch:\n%v (%d)\nvs\n%v (%d)", gotT, all.Commits(), wantT, opt.Commits())
	}
}
