package storage

import (
	"fmt"
	"sync"
	"testing"

	"youtopia/internal/model"
)

// raceSchema builds a small schema for the concurrency stress tests.
func raceSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("R", "a", "b")
	s.MustAddRelation("S", "a", "b", "c")
	return s
}

// TestStoreConcurrentStress hammers one Store from many goroutines —
// concurrent writers (insert, content delete, null replacement, abort,
// commit) against concurrent readers (snapshots, index probes, stats,
// dumps, uncommitted-write scans). It asserts nothing beyond internal
// consistency at the end; its purpose is to run under the race
// detector, where any unsynchronized store access fails the build.
// Run it as: go test -race ./internal/storage/
func TestStoreConcurrentStress(t *testing.T) {
	const writers = 8
	iters := 400
	if testing.Short() {
		iters = 60
	}
	st := NewStore(raceSchema())
	for i := 0; i < 10; i++ {
		if _, err := st.Load(model.NewTuple("R", model.Const(fmt.Sprint(i)), model.Const("seed"))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Mutator goroutines, one writer number each (writer numbers are
	// per-update in real use; distinct numbers make abort/commit
	// interleavings meaningful).
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			null := st.FreshNull()
			for i := 0; i < iters; i++ {
				a := model.Const(fmt.Sprintf("w%d-%d", w, i%7))
				switch i % 5 {
				case 0:
					if _, _, _, err := st.Insert(w, model.NewTuple("R", a, null)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := st.Insert(w, model.NewTuple("S", a, model.Const("x"), null)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := st.DeleteContent(w, model.NewTuple("R", a, null)); err != nil {
						t.Error(err)
						return
					}
				case 3:
					next := st.FreshNull()
					if _, err := st.ReplaceNull(w, null, next); err != nil {
						t.Error(err)
						return
					}
					null = next
				case 4:
					st.Abort(w)
					null = st.FreshNull()
				}
			}
			st.Abort(w) // leave only committed state behind
		}(w)
	}
	// Reader goroutines exercising every read surface concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var rows []Row
			for i := 0; i < iters; i++ {
				snap := st.Snap(r * 3)
				countRel(snap, "R")
				snap.VisibleFacts()
				snap.MoreSpecificInto(model.NewTuple("R", model.Const("w1-0"), st.FreshNull()), nil)
				rows, _ = snap.ProbeRows("R", 1, model.Const("seed"), rows[:0], nil)
				rows, _ = snap.ProbeRows("S", -1, model.Value{}, rows[:0], nil)
				for _, row := range rows {
					snap.Get(row.ID)
					snap.GetTuple(row.ID)
				}
				st.UncommittedWrites()
				st.UncommittedWritersOf("R")
				st.CurrentSeq()
				st.Stats()
				if i%32 == 0 {
					st.Dump(1 << 30)
				}
			}
		}(r)
	}
	wg.Wait()

	// All writers aborted: only the committed initial load survives.
	if got := countRel(st.Snap(1<<30), "R"); got != 10 {
		t.Fatalf("R count after all aborts = %d, want 10", got)
	}
	if got := countRel(st.Snap(1<<30), "S"); got != 0 {
		t.Fatalf("S count after all aborts = %d, want 0", got)
	}
	if ws := st.UncommittedWrites(); len(ws) != 0 {
		t.Fatalf("%d uncommitted writes survive the aborts", len(ws))
	}
	mustAudit(t, st)
}

// TestStoreConcurrentCommitAbort interleaves commits and aborts with
// reads to stress the log and cache bookkeeping.
func TestStoreConcurrentCommitAbort(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	st := NewStore(raceSchema())
	var wg sync.WaitGroup
	for w := 1; w <= 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				writer := w + 6*i
				tup := model.NewTuple("R", model.Const(fmt.Sprint(writer)), model.Const("v"))
				if _, _, _, err := st.Insert(writer, tup); err != nil {
					t.Error(err)
					return
				}
				if writer%2 == 0 {
					st.Commit(writer)
				} else {
					st.Abort(writer)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*6; i++ {
			st.UncommittedWrites()
			st.Snap(1 << 30).VisibleFacts()
		}
	}()
	wg.Wait()
	want := 3 * rounds // the even writers committed one tuple each
	if got := countRel(st.Snap(1<<30), "R"); got != want {
		t.Fatalf("committed R count = %d, want %d", got, want)
	}
	mustAudit(t, st)
}

// TestCrossRelationReadsAtomic: a read that spans relations sees a
// commit or an abort wholly or not at all. Each round a writer inserts
// R(x) and S(x) with one fresh null x, while the readers are held off,
// and then commits or aborts — in turn — while they read. The null
// index, the committed view, a scan of every relation and the
// write-log scan over every relation must each show both tuples or
// neither.
func TestCrossRelationReadsAtomic(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 80
	}
	s := model.NewSchema()
	s.MustAddRelation("R", "a")
	s.MustAddRelation("S", "a")
	st := NewStore(s)

	// phase holds the readers off while a round inserts; x and w, the
	// round's null and writer, change only under its write lock.
	var phase sync.RWMutex
	var x model.Value
	var w int
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= rounds; i++ {
			phase.Lock()
			x, w = st.FreshNull(), i
			for _, rel := range []string{"R", "S"} {
				if _, _, _, err := st.Insert(w, model.NewTuple(rel, x)); err != nil {
					t.Error(err)
				}
			}
			phase.Unlock()
			if i%2 == 0 {
				if err := st.CommitBatch([]int{i}); err != nil {
					t.Error(err)
				}
			} else {
				st.Abort(i)
			}
			if t.Failed() {
				return
			}
		}
	}()

	withX := func(facts map[string][]model.Tuple, x model.Value) int {
		n := 0
		for _, ts := range facts {
			for _, tu := range ts {
				if tu.Vals[0] == x {
					n++
				}
			}
		}
		return n
	}
	var writes []WriteRec
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				phase.RLock()
				x, w := x, w
				counts := map[string]int{
					"committed TuplesWithNull": len(st.EpochSnap().TuplesWithNull(x)),
					"writer's TuplesWithNull":  len(st.Snap(w).TuplesWithNull(x)),
					"committed VisibleFacts":   withX(st.EpochSnap().VisibleFacts(), x),
				}
				if r == 0 {
					writes = st.AppendUncommittedWrites(writes[:0], "")
					n := 0
					for _, wr := range writes {
						if wr.After[0] == x {
							n++
						}
					}
					counts["AppendUncommittedWrites"] = n
				}
				phase.RUnlock()
				for read, n := range counts {
					if n != 0 && n != 2 {
						t.Errorf("%s of %s saw %d of the round's 2 tuples", read, x, n)
					}
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
	mustAudit(t, st)
}
