package chase_test

import (
	"slices"
	"strings"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

func travel(t *testing.T) (*storage.Store, *tgd.Set, *chase.Engine) {
	t.Helper()
	_, set, st, err := fixtures.Travel()
	if err != nil {
		t.Fatal(err)
	}
	return st, set, chase.NewEngine(st, set)
}

func mustSatisfied(t *testing.T, st *storage.Store, set *tgd.Set, reader int) {
	t.Helper()
	e := query.NewEngine(st.Snap(reader))
	if vs := e.AllViolations(set); len(vs) != 0 {
		t.Fatalf("mappings violated after chase: %v\ndb:\n%s", vs, st.Dump(reader))
	}
}

func runToCompletion(t *testing.T, e *chase.Engine, u *chase.Update, user chase.User) chase.Stats {
	t.Helper()
	e.MaxStepsPerAttempt = 10000
	r := &chase.Runner{Engine: e, User: user}
	stats, err := r.Run(u)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats
}

func TestExample11ForwardPropagation(t *testing.T) {
	// Example 1.1: adding T(Niagara Falls, ABC Tours, Toronto) makes the
	// chase insert R(ABC Tours, Niagara Falls, x?) deterministically —
	// no more specific R tuple exists.
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("T", c("Niagara Falls"), c("ABC Tours"), c("Toronto"))))
	stats := runToCompletion(t, e, u, simuser.Silent())
	if stats.FrontierRequests != 0 {
		t.Fatalf("repair must be deterministic, got %d frontier requests", stats.FrontierRequests)
	}
	snap := st.Snap(1)
	found := false
	snap.ScanRel("R", func(_ storage.TupleID, vals []model.Value) bool {
		if vals[0] == c("ABC Tours") && vals[1] == c("Niagara Falls") && vals[2].IsNull() {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("R(ABC Tours, Niagara Falls, x) missing:\n%s", st.Dump(1))
	}
	mustSatisfied(t, st, set, 1)
}

func TestSection22CycleStopsAtFrontier(t *testing.T) {
	// §2.2: inserting S(JFK, NYC, Ithaca) triggers σ2 (insert C(NYC)),
	// then σ1 for NYC generates S(x, x', NYC) — deterministic (no more
	// specific S row serves NYC) — then σ2 on that generates C(x'),
	// which HAS more specific counterparts, so the chase stops at a
	// positive frontier instead of cascading forever.
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))))

	var steps int
	e.MaxStepsPerAttempt = 1000
	for {
		res, err := e.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if res.State != chase.StateReady {
			if res.State != chase.StateAwaitingUser {
				t.Fatalf("chase must block at a frontier, got %v after %d steps", res.State, steps)
			}
			break
		}
	}
	groups := u.Groups()
	if len(groups) != 1 || !groups[0].Positive {
		t.Fatalf("expected one positive frontier group, got %v", groups)
	}
	// The frontier tuple is C(x') for the fresh airport location.
	g := groups[0]
	if len(g.Tuples) != 1 || g.Tuples[0].Rel != "C" || !g.Tuples[0].Vals[0].IsNull() {
		t.Fatalf("frontier tuples = %v", g.Tuples)
	}
	// C(NYC) must have been inserted along the way.
	if !contains(st.Snap(1), tup("C", c("NYC"))) {
		t.Fatalf("C(NYC) missing:\n%s", st.Dump(1))
	}

	// Resolving by unification (the knowledgeable human of §2.2: the
	// airport's city is NYC itself) terminates the chase.
	stats := runToCompletion(t, e, u, simuser.UnifyFirst())
	mustSatisfied(t, st, set, 1)
	if stats.Unifications == 0 {
		t.Fatal("expected at least one unification")
	}
}

func TestExample23BackwardChaseFrontier(t *testing.T) {
	// Example 2.3: deleting R(XYZ, Geneva Winery, Great!) violates σ3;
	// either A(Geneva, Geneva Winery) or T(Geneva Winery, XYZ, Syracuse)
	// may be deleted — a negative frontier with two candidates.
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))))
	res, err := e.Step(u)
	if err != nil {
		t.Fatal(err)
	}
	// One more step may be needed to reach the frontier (write, then plan).
	for res.State == chase.StateReady {
		if res, err = e.Step(u); err != nil {
			t.Fatal(err)
		}
	}
	if res.State != chase.StateAwaitingUser {
		t.Fatalf("state = %v", res.State)
	}
	groups := u.Groups()
	if len(groups) != 1 || groups[0].Positive {
		t.Fatalf("expected one negative group, got %v", groups)
	}
	g := groups[0]
	if len(g.Candidates) != 2 {
		t.Fatalf("candidates = %v", g.Candidates)
	}
	snap := st.Snap(1)
	rels := map[string]bool{}
	for _, id := range g.Candidates {
		tv, ok := snap.GetTuple(id)
		if !ok {
			t.Fatalf("candidate #%d invisible", id)
		}
		rels[tv.Rel] = true
	}
	if !rels["A"] || !rels["T"] {
		t.Fatalf("candidates must span A and T, got %v", rels)
	}

	// Choose to delete the T tuple, per the example.
	var tID storage.TupleID
	for _, id := range g.Candidates {
		if tv, _ := snap.GetTuple(id); tv.Rel == "T" {
			tID = id
		}
	}
	if err := e.Apply(u, g.ID, chase.Decision{Kind: chase.DecideDelete, Subset: []storage.TupleID{tID}}); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, e, u, simuser.Silent())
	if contains(st.Snap(1), tup("T", c("Geneva Winery"), c("XYZ"), c("Syracuse"))) {
		t.Fatal("T tuple still present")
	}
	if !contains(st.Snap(1), tup("A", c("Geneva"), c("Geneva Winery"))) {
		t.Fatal("A tuple must survive")
	}
	mustSatisfied(t, st, set, 1)
}

func TestDeletionCascades(t *testing.T) {
	// Deleting E(Science Conf, Geneva Winery) violates σ4; the witness
	// is {V(Syracuse, Science Conf), T(Geneva Winery, XYZ, Syracuse)}.
	// Deleting the T tuple cascades into σ3 territory? No — σ3 needs
	// A⋈T on the LHS, and removing T removes the LHS match. But
	// deleting the V tuple is cascade-free. Verify both resolutions
	// leave the mappings satisfied.
	for _, pick := range []string{"V", "T"} {
		st, set, e := travel(t)
		u := chase.NewUpdate(1, chase.Delete(tup("E", c("Science Conf"), c("Geneva Winery"))))
		user := chase.UserFunc(func(uu *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
			snap := st.Snap(uu.Number)
			if !g.Positive {
				for _, id := range g.Candidates {
					if tv, _ := snap.GetTuple(id); tv.Rel == pick {
						return chase.Decision{Kind: chase.DecideDelete, Subset: []storage.TupleID{id}}, true
					}
				}
			}
			// Fall back to the first option for positive groups.
			return opts[0], true
		})
		runToCompletion(t, e, u, user)
		mustSatisfied(t, st, set, 1)
		if contains(st.Snap(1), tup("E", c("Science Conf"), c("Geneva Winery"))) {
			t.Fatalf("pick=%s: deleted fact reappeared", pick)
		}
	}
}

func TestNullReplacementPropagates(t *testing.T) {
	// Replacing x1 (the unknown Niagara Falls tour company) with a
	// constant rewrites both T and R consistently and creates no
	// violations (§2: null-replacements change all occurrences).
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.ReplaceNull(n(1), c("ABC Tours")))
	stats := runToCompletion(t, e, u, simuser.Silent())
	if stats.FrontierRequests != 0 {
		t.Fatalf("null replacement must not need frontier help, got %d requests", stats.FrontierRequests)
	}
	snap := st.Snap(1)
	if !contains(snap, tup("T", c("Niagara Falls"), c("ABC Tours"), c("Toronto"))) {
		t.Fatalf("T not rewritten:\n%s", st.Dump(1))
	}
	if got := snap.TuplesWithNull(n(1)); len(got) != 0 {
		t.Fatalf("x1 still present: %v", got)
	}
	mustSatisfied(t, st, set, 1)
}

func TestGenealogyControlledNontermination(t *testing.T) {
	// §2.2: Person(John) under the cyclic ancestry tgd. With a user who
	// always expands, the chase never terminates (we bound it by step
	// limit); each expansion adds one more ancestor. With a unifying
	// user it terminates immediately.
	_, set, st, err := fixtures.Genealogy()
	if err != nil {
		t.Fatal(err)
	}
	e := chase.NewEngine(st, set)
	e.MaxStepsPerAttempt = 40
	u := chase.NewUpdate(1, chase.Insert(tup("Person", c("John"))))
	r := &chase.Runner{Engine: e, User: simuser.ExpandAlways()}
	_, err = r.Run(u)
	if err == nil {
		t.Fatal("always-expanding user must hit the step limit (controlled nontermination)")
	}
	if !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Ancestors accumulated.
	if got := countRel(st.Snap(1), "Father"); got < 3 {
		t.Fatalf("expected an ancestor chain, Father has %d rows:\n%s", got, st.Dump(1))
	}

	// Fresh repository, unifying user: John is his own father — one
	// unification closes the loop.
	_, set2, st2, _ := fixtures.Genealogy()
	e2 := chase.NewEngine(st2, set2)
	u2 := chase.NewUpdate(1, chase.Insert(tup("Person", c("John"))))
	stats := runToCompletion(t, e2, u2, simuser.UnifyFirst())
	mustSatisfied(t, st2, set2, 1)
	if stats.Unifications == 0 {
		t.Fatal("expected a unification")
	}
}

func TestUnificationRewritesDatabase(t *testing.T) {
	// The §2.2 narrative, completed: after inserting S(JFK, NYC,
	// Ithaca) the chase inserts C(NYC) and S(x3, x4, NYC) and stops at
	// the frontier tuple C(x4). The knowledgeable human indicates that
	// the suggested airport for NYC is itself in NYC — unify C(x4) with
	// C(NYC) — which must globally replace x4, rewriting the S row
	// already in the database to S(x3, NYC, NYC).
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))))
	user := chase.UserFunc(func(uu *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		snap := st.Snap(uu.Number)
		for _, d := range opts {
			if d.Kind == chase.DecideUnify {
				if tv, _ := snap.GetTuple(d.Target); tv.Equal(tup("C", c("NYC"))) {
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
	stats := runToCompletion(t, e, u, user)
	mustSatisfied(t, st, set, 1)
	if stats.Unifications == 0 {
		t.Fatal("expected a unification")
	}
	// The generated S row must now read S(x?, NYC, NYC).
	snap := st.Snap(1)
	found := false
	snap.ScanRel("S", func(_ storage.TupleID, vals []model.Value) bool {
		if vals[0].IsNull() && vals[1] == c("NYC") && vals[2] == c("NYC") {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("global replacement did not rewrite the S row:\n%s", st.Dump(1))
	}
}

func TestReconfirmOperation(t *testing.T) {
	// Reconfirming one of two deletion candidates leaves a single
	// candidate, making the repair deterministic.
	st, set, e := travel(t)
	u := chase.NewUpdate(1, chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))))
	var res chase.StepResult
	var err error
	for res, err = e.Step(u); res.State == chase.StateReady && err == nil; res, err = e.Step(u) {
	}
	if err != nil {
		t.Fatal(err)
	}
	g := u.Groups()[0]
	snap := st.Snap(1)
	var aID storage.TupleID
	for _, id := range g.Candidates {
		if tv, _ := snap.GetTuple(id); tv.Rel == "A" {
			aID = id
		}
	}
	// Protect the A tuple: the T tuple must then be deleted.
	if err := e.Apply(u, g.ID, chase.Decision{Kind: chase.DecideReconfirm, Subset: []storage.TupleID{aID}}); err != nil {
		t.Fatal(err)
	}
	if u.Stats.Reconfirmations != 1 {
		t.Fatalf("stats = %+v", u.Stats)
	}
	runToCompletion(t, e, u, simuser.Silent())
	if !contains(st.Snap(1), tup("A", c("Geneva"), c("Geneva Winery"))) {
		t.Fatal("reconfirmed tuple was deleted")
	}
	if contains(st.Snap(1), tup("T", c("Geneva Winery"), c("XYZ"), c("Syracuse"))) {
		t.Fatal("unprotected candidate must be deleted")
	}
	mustSatisfied(t, st, set, 1)
}

func TestRandomUserAlwaysRepairs(t *testing.T) {
	// Property: whatever the (seeded random) user decides, a completed
	// update leaves every mapping satisfied.
	for seed := uint64(0); seed < 25; seed++ {
		st, set, e := travel(t)
		user := simuser.New(seed)
		u := chase.NewUpdate(1, chase.Insert(tup("C", c("Boston"))))
		runToCompletion(t, e, u, user)
		mustSatisfied(t, st, set, 1)

		u2 := chase.NewUpdate(2, chase.Delete(tup("S", c("SYR"), c("Syracuse"), c("Ithaca"))))
		runToCompletion(t, e, u2, user)
		mustSatisfied(t, st, set, 2)
	}
}

func TestUpdateLifecycle(t *testing.T) {
	st, _, e := travel(t)
	u := chase.NewUpdate(3, chase.Insert(tup("C", c("Boston"))))
	if u.State() != chase.StateReady || u.Attempt != 1 {
		t.Fatalf("fresh update: %v attempt %d", u.State(), u.Attempt)
	}
	if !u.Positive() {
		t.Fatal("insert update must be positive")
	}
	runToCompletion(t, e, u, simuser.New(1))
	if u.State() != chase.StateTerminated {
		t.Fatalf("state = %v", u.State())
	}
	// Stepping a terminated update is a no-op.
	res, err := e.Step(u)
	if err != nil || res.State != chase.StateTerminated {
		t.Fatalf("step after termination: %v %v", res, err)
	}
	// Reset rewinds everything.
	st.Abort(3)
	u.Reset()
	if u.State() != chase.StateReady || u.Attempt != 2 || len(u.StoredReads()) != 0 {
		t.Fatalf("after reset: %v attempt %d reads %d", u.State(), u.Attempt, len(u.StoredReads()))
	}
	if !chase.NewUpdate(4, chase.Delete(tup("C", c("Z")))).Positive() == false {
		t.Fatal("delete update must be negative")
	}
}

func TestDecisionValidation(t *testing.T) {
	st, _, e := travel(t)
	u := chase.NewUpdate(1, chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))))
	var res chase.StepResult
	var err error
	for res, err = e.Step(u); res.State == chase.StateReady && err == nil; res, err = e.Step(u) {
	}
	if err != nil {
		t.Fatal(err)
	}
	g := u.Groups()[0]
	bad := []chase.Decision{
		{Kind: chase.DecideExpand},                                                              // expand on negative group
		{Kind: chase.DecideDelete},                                                              // empty subset
		{Kind: chase.DecideDelete, Subset: []storage.TupleID{9999}},                             // not a candidate
		{Kind: chase.DecideReconfirm, Subset: g.Candidates},                                     // not proper
		{Kind: chase.DecideDelete, Subset: []storage.TupleID{g.Candidates[0], g.Candidates[0]}}, // duplicate
		{Kind: chase.DecisionKind(77)},                                                          // unknown
	}
	for i, d := range bad {
		if err := e.Apply(u, g.ID, d); err == nil {
			t.Errorf("bad decision %d accepted: %v", i, d)
		}
	}
	// Unknown group.
	if err := e.Apply(u, 999, chase.Decision{Kind: chase.DecideDelete, Subset: g.Candidates[:1]}); err == nil {
		t.Error("unknown group accepted")
	}
	_ = st
}

func TestOpHelpers(t *testing.T) {
	i := chase.Insert(tup("C", c("a")))
	d := chase.Delete(tup("C", c("a")))
	di := chase.DeleteID(7)
	r := chase.ReplaceNull(n(1), c("v"))
	if !i.Positive() || d.Positive() || !r.Positive() {
		t.Fatal("polarity wrong")
	}
	for _, op := range []chase.Op{i, d, di, r} {
		if op.String() == "" {
			t.Fatal("empty op string")
		}
	}
	if i.Kind.String() != "insert" || d.Kind.String() != "delete" ||
		di.Kind.String() != "delete-id" || r.Kind.String() != "replace-null" {
		t.Fatal("kind strings wrong")
	}
}

func TestStateAndDecisionStrings(t *testing.T) {
	states := []chase.State{chase.StateReady, chase.StateAwaitingUser, chase.StateTerminated, chase.StateAborted}
	want := []string{"ready", "awaiting-user", "terminated", "aborted"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Errorf("state %d = %q", i, s.String())
		}
	}
	kinds := []chase.DecisionKind{chase.DecideExpand, chase.DecideUnify, chase.DecideDelete, chase.DecideReconfirm}
	wantK := []string{"expand", "unify", "delete", "reconfirm"}
	for i, k := range kinds {
		if k.String() != wantK[i] {
			t.Errorf("kind %d = %q", i, k.String())
		}
	}
	d := chase.Decision{Kind: chase.DecideUnify, TupleIdx: 1, Target: 5}
	if d.String() == "" {
		t.Fatal("empty decision string")
	}
}

func TestMultiAtomRHSSharedNulls(t *testing.T) {
	// Genealogy: the generated group Father(John, y) & Person(y) shares
	// the fresh null y. Expanding the Father tuple first and then
	// unifying Person(y) with an existing person must rewrite the
	// already-inserted Father tuple (the fresh null escaped).
	_, set, st, err := fixtures.Genealogy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Person", c("Mary"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Father", c("Mary"), c("Adam"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Person", c("Adam"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Father", c("Adam"), c("Adam"))); err != nil {
		t.Fatal(err)
	}
	e := chase.NewEngine(st, set)
	u := chase.NewUpdate(1, chase.Insert(tup("Person", c("John"))))

	decided := 0
	user := chase.UserFunc(func(uu *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		decided++
		snap := st.Snap(uu.Number)
		// First decision: expand the Father tuple.
		for idx, tv := range g.Tuples {
			if tv.Rel == "Father" {
				return chase.Decision{Kind: chase.DecideExpand, TupleIdx: idx}, true
			}
			_ = idx
		}
		// Then unify Person(y) with Person(Mary).
		for _, d := range opts {
			if d.Kind == chase.DecideUnify {
				if tv, _ := snap.GetTuple(d.Target); tv.Equal(tup("Person", c("Mary"))) {
					return d, true
				}
			}
		}
		return opts[0], true
	})
	runToCompletion(t, e, u, user)
	mustSatisfied(t, st, set, 1)
	if !contains(st.Snap(1), tup("Father", c("John"), c("Mary"))) {
		t.Fatalf("escaped fresh null not rewritten:\n%s", st.Dump(1))
	}
}

// contains reports whether a tuple with t's content is visible in sn.
func contains(sn *storage.Snapshot, t model.Tuple) bool {
	rows, _ := sn.ProbeRows(t.Rel, -1, model.Value{}, nil, func(vals []model.Value) (bool, bool) {
		eq := slices.Equal(vals, t.Vals)
		return eq, eq
	})
	return len(rows) > 0
}

// countRel returns the number of tuples of rel visible in sn.
func countRel(sn *storage.Snapshot, rel string) int {
	rows, _ := sn.ProbeRows(rel, -1, model.Value{}, nil, nil)
	return len(rows)
}
