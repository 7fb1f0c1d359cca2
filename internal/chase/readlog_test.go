package chase_test

import (
	"fmt"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/obs"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// readLogUniverses are small random universes whose chases perform
// every read kind, frontier operations included.
func readLogUniverses(t *testing.T) []*workload.Universe {
	t.Helper()
	var out []*workload.Universe
	for seed := int64(1); seed <= 3; seed++ {
		u, err := workload.Build(workload.Config{
			Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8, MaxAtomsPerSide: 2,
			InitialTuples: 30, Updates: 10, InsertPct: 80, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, u)
	}
	return out
}

// runSerially runs the universe's seeded operations one at a time on
// a fresh store, committing each, and returns the store and updates.
func runSerially(t *testing.T, u *workload.Universe, obsFn chase.ReadObserver) (*storage.Store, []*chase.Update) {
	t.Helper()
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := chase.NewEngine(st, u.Mappings)
	eng.MaxStepsPerAttempt = 100000
	if obsFn != nil {
		eng.SetReadObserver(obsFn)
	}
	runner := &chase.Runner{Engine: eng, User: simuser.New(3)}
	var ups []*chase.Update
	for i, op := range u.GenOpsSeeded(600) {
		up := chase.NewUpdate(i+1, op)
		if _, err := runner.Run(up); err != nil {
			t.Fatalf("update %d: %v", i+1, err)
		}
		if err := st.Commit(i + 1); err != nil {
			t.Fatal(err)
		}
		ups = append(ups, up)
	}
	return st, ups
}

// TestNoReadLogWithoutObserver: an engine with no read observer — the
// single-user paths — stores and counts no reads, and ends in the same
// state as an engine that logs every read.
func TestNoReadLogWithoutObserver(t *testing.T) {
	recorded := obs.Default.Counter("chase_reads_recorded_total")
	deduped := obs.Default.Counter("chase_reads_deduped_total")
	for i, u := range readLogUniverses(t) {
		r0, d0 := recorded.Value(), deduped.Value()
		bare, ups := runSerially(t, u, nil)
		if r, d := recorded.Value()-r0, deduped.Value()-d0; r != 0 || d != 0 {
			t.Fatalf("universe %d: %d reads recorded, %d deduped without an observer", i, r, d)
		}
		for _, up := range ups {
			if len(up.StoredReads()) != 0 {
				t.Fatalf("universe %d, update %d: reads stored without an observer", i, up.Number)
			}
		}
		r0 = recorded.Value()
		logged, _ := runSerially(t, u, func(*chase.Update, query.ReadQuery) {})
		if recorded.Value() == r0 {
			t.Fatalf("universe %d: the observed run recorded no reads", i)
		}
		if got, want := bare.Dump(1<<30), logged.Dump(1<<30); got != want {
			t.Fatalf("universe %d: the read log changed the result\nwithout:\n%s\nwith:\n%s", i, got, want)
		}
	}
}

// TestPublishedPrefixIsObservedReads: with an observer installed, a
// read is in the update's log before the observer is told of it, and
// after every engine call the log holds exactly the reads the observer
// saw, one to one and in order.
func TestPublishedPrefixIsObservedReads(t *testing.T) {
	applies := 0
	for i, u := range readLogUniverses(t) {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		eng := chase.NewEngine(st, u.Mappings)
		eng.MaxStepsPerAttempt = 100000
		var observed []query.ReadQuery
		eng.SetReadObserver(func(up *chase.Update, q query.ReadQuery) {
			observed = append(observed, q)
			if log := up.StoredReads(); len(log) != len(observed) || log[len(log)-1] != q {
				t.Fatalf("universe %d, update %d: observed read %d is not the last of %d logged", i, up.Number, len(observed), len(log))
			}
		})
		calls := 0
		check := func(up *chase.Update, call string) {
			t.Helper()
			calls++
			got := up.StoredReads()
			if len(got) != len(observed) {
				t.Fatalf("universe %d, update %d, after %s: %d reads logged, %d observed",
					i, up.Number, call, len(got), len(observed))
			}
			for j := range got {
				if got[j] != observed[j] {
					t.Fatalf("universe %d, update %d, after %s: logged read %d is %s, observed %s",
						i, up.Number, call, j, got[j], observed[j])
				}
			}
		}
		user := simuser.New(3)
		for n, op := range u.GenOpsSeeded(600) {
			up := chase.NewUpdate(n+1, op)
			observed = nil
			for up.State() != chase.StateTerminated {
				if up.State() == chase.StateReady {
					if _, err := eng.Step(up); err != nil {
						t.Fatal(err)
					}
					check(up, "Step")
					continue
				}
				decided := false
				for _, g := range append([]*chase.FrontierGroup(nil), up.Groups()...) {
					opts := eng.Options(up, g)
					check(up, "Options")
					ctx := eng.DecisionContext(up, g)
					check(up, "DecisionContext")
					if d, ok := user.Decide(up, g, opts, ctx); ok {
						if err := eng.Apply(up, g.ID, d); err != nil {
							t.Fatal(err)
						}
						check(up, fmt.Sprintf("Apply(%s)", d.Kind))
						applies++
						decided = true
						break
					}
				}
				if !decided {
					t.Fatalf("universe %d, update %d: no decision", i, up.Number)
				}
			}
			if err := st.Commit(up.Number); err != nil {
				t.Fatal(err)
			}
		}
		if calls == 0 {
			t.Fatalf("universe %d: no engine call was checked", i)
		}
	}
	if applies == 0 {
		t.Fatal("no frontier operation was checked")
	}
}
