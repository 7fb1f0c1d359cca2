package chase_test

import (
	"fmt"
	"slices"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// readLogUniverses are small random universes whose chases perform
// every read kind, frontier operations included; in the last, denser
// one, unifications rewrite the tuples of other open groups.
func readLogUniverses(t *testing.T) []*workload.Universe {
	t.Helper()
	cfgs := []workload.Config{
		{Relations: 12, MinArity: 1, MaxArity: 4, Constants: 8, Mappings: 16, MaxAtomsPerSide: 3,
			InitialTuples: 60, Updates: 40, InsertPct: 80, Seed: 10},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfgs = append(cfgs, workload.Config{
			Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8, MaxAtomsPerSide: 2,
			InitialTuples: 30, Updates: 10, InsertPct: 80, Seed: seed,
		})
	}
	var out []*workload.Universe
	for _, cfg := range cfgs {
		u, err := workload.Build(cfg)
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
	for i, u := range readLogUniverses(t) {
		r0 := recorded.Value()
		bare, ups := runSerially(t, u, nil)
		if r := recorded.Value() - r0; r != 0 {
			t.Fatalf("universe %d: %d reads recorded without an observer", i, r)
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
// saw, one to one and in order. Once Options offered a group, the log
// holds a more-specific read of each of its tuples (unpatternedTuple);
// Options re-logs a group's patterns only after a substitution rewrote
// them, which must happen.
func TestPublishedPrefixIsObservedReads(t *testing.T) {
	applies, relogs := 0, 0
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
					before := len(observed)
					opts := eng.Options(up, g)
					check(up, "Options")
					if len(observed) > before {
						relogs++
					}
					if tu, ok := unpatternedTuple(up, g); ok {
						t.Fatalf("universe %d, update %d, after Options: frontier tuple %s has no more-specific read in the log",
							i, up.Number, tu)
					}
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
	if applies == 0 || relogs == 0 {
		t.Fatalf("%d frontier operations checked, %d groups re-logged after a substitution", applies, relogs)
	}
}

// unpatternedTuple returns a tuple of the group whose pattern no
// more-specific read in the update's log carries.
func unpatternedTuple(up *chase.Update, g *chase.FrontierGroup) (model.Tuple, bool) {
	for _, tu := range g.Tuples {
		if !slices.ContainsFunc(up.StoredReads(), func(q query.ReadQuery) bool {
			ms, ok := q.(*query.MoreSpecificRead)
			return ok && ms.Rel == tu.Rel && slices.Equal(ms.Pattern, tu.Vals)
		}) {
			return tu, true
		}
	}
	return model.Tuple{}, false
}
