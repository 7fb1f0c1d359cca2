package cc_test

import (
	"slices"
	"strings"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/model"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

func travel(t *testing.T) (*storage.Store, *tgd.Set) {
	t.Helper()
	_, set, st, err := fixtures.Travel()
	if err != nil {
		t.Fatal(err)
	}
	return st, set
}

// example31User resolves u1's negative frontier by deleting the T
// tuple, after declining the first `delay` polls so that u2 runs ahead
// — reproducing the interleaving of Example 3.1.
type example31User struct {
	st    *storage.Store
	delay int
	polls int
}

func (u *example31User) Decide(upd *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
	if u.polls < u.delay {
		u.polls++
		return chase.Decision{}, false
	}
	snap := u.st.Snap(upd.Number)
	for _, id := range g.Candidates {
		if tv, ok := snap.GetTuple(id); ok && tv.Rel == "T" {
			return chase.Decision{Kind: chase.DecideDelete, Subset: []storage.TupleID{id}}, true
		}
	}
	return opts[0], true
}

func example31Ops() []chase.Op {
	return []chase.Op{
		chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))), // u1
		chase.Insert(tup("V", c("Syracuse"), c("Math Conf"))),             // u2
	}
}

func TestExample31InterferencePrevented(t *testing.T) {
	// The paper's motivating anomaly: u2 prematurely inserts E(Math
	// Conf, Geneva Winery) while u1's deletion is waiting for a
	// frontier operation that will delete the witness tuple T(Geneva
	// Winery, XYZ, Syracuse). Algorithm 4 must abort u2 when u1's
	// delete lands, and u2's re-run must not re-insert the E tuple.
	st, set := travel(t)
	user := &example31User{st: st, delay: 3}
	sched := cc.NewScheduler(st, set, cc.Config{
		Tracker: cc.Precise{},
		Policy:  cc.PolicyRoundRobinStep,
		User:    user,
	})
	m, err := sched.Run(example31Ops())
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborts != 1 {
		t.Fatalf("expected exactly one abort (u2), got %+v", m)
	}
	if m.DirectAbortRequests < 1 {
		t.Fatalf("expected a direct abort request, got %+v", m)
	}
	final := st.Snap(1000)
	if contains(final, tup("E", c("Math Conf"), c("Geneva Winery"))) {
		t.Fatalf("premature E tuple survived — interference not prevented:\n%s", st.Dump(1000))
	}
	if contains(final, tup("T", c("Geneva Winery"), c("XYZ"), c("Syracuse"))) {
		t.Fatal("u1's frontier deletion missing")
	}
	if !contains(final, tup("V", c("Syracuse"), c("Math Conf"))) {
		t.Fatal("u2's insert missing after re-run")
	}

	// The final state must equal the serial execution's.
	st2, set2 := travel(t)
	if _, err := serial.Execute(st2, set2, example31Ops(), &example31User{st: st2}); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Dump(1000), st2.Dump(1000); got != want {
		t.Fatalf("concurrent final state differs from serial:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestExample31FlagMode(t *testing.T) {
	// In detection mode the anomaly is flagged but not prevented: the
	// premature E tuple survives and Flagged counts the conflict.
	st, set := travel(t)
	user := &example31User{st: st, delay: 3}
	sched := cc.NewScheduler(st, set, cc.Config{
		Tracker: cc.Precise{},
		Mode:    cc.ModeFlag,
		User:    user,
	})
	m, err := sched.Run(example31Ops())
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborts != 0 {
		t.Fatalf("flag mode must not abort: %+v", m)
	}
	if m.Flagged == 0 {
		t.Fatalf("flag mode must flag the interference: %+v", m)
	}
	if !contains(st.Snap(1000), tup("E", c("Math Conf"), c("Geneva Winery"))) {
		t.Fatal("flag mode must let the premature insert stand")
	}
}

func TestNoConflictNoAbort(t *testing.T) {
	// Disjoint updates never abort under any tracker.
	for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
		st, set := travel(t)
		sched := cc.NewScheduler(st, set, cc.Config{Tracker: tr, User: simuser.New(7)})
		ops := []chase.Op{
			chase.Insert(tup("A", c("Letchworth"), c("Letchworth Falls"))),
			chase.Insert(tup("V", c("Ithaca"), c("Gorges Conf"))),
		}
		m, err := sched.Run(ops)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if m.Aborts != 0 {
			t.Fatalf("%s: unexpected aborts: %+v", tr.Name(), m)
		}
		if m.Runs != 2 {
			t.Fatalf("%s: runs = %d", tr.Name(), m.Runs)
		}
	}
}

func TestNaiveCascadesMoreThanPrecise(t *testing.T) {
	// Three updates: u1 conflicts with u2 (same mapping territory),
	// while u3 is completely unrelated. NAIVE must drag u3 down with
	// u2; PRECISE must not.
	ops := []chase.Op{
		chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))), // u1, slow frontier
		chase.Insert(tup("V", c("Syracuse"), c("Math Conf"))),             // u2, conflicts with u1
		chase.Insert(tup("A", c("Letchworth"), c("Letchworth Falls"))),    // u3, unrelated
	}
	run := func(tr cc.Tracker) cc.Metrics {
		st, set := travel(t)
		sched := cc.NewScheduler(st, set, cc.Config{
			Tracker: tr,
			User:    &example31User{st: st, delay: 4},
		})
		m, err := sched.Run(ops)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		return m
	}
	naive := run(cc.Naive{})
	precise := run(cc.Precise{})
	if naive.Aborts <= precise.Aborts {
		t.Fatalf("NAIVE must abort more: naive %+v vs precise %+v", naive, precise)
	}
	if naive.CascadingAbortRequests == 0 {
		t.Fatalf("NAIVE must request cascading aborts: %+v", naive)
	}
	if precise.CascadingAbortRequests != 0 {
		t.Fatalf("PRECISE must not cascade here: %+v", precise)
	}
}

func TestConcurrentEqualsSerial(t *testing.T) {
	// Theorem 4.4, empirically: for a battery of seeded random
	// workloads over the travel repository, the conflict-serializable
	// concurrent execution produces the same final database as the
	// serial execution, byte for byte — for every tracker, under both
	// schedulers.
	workload := func(seed int64) []chase.Op {
		// Deterministic small mixed workload.
		rng := newRand(seed)
		var ops []chase.Op
		cities := []string{"Boston", "Albany", "Buffalo", "Utica"}
		attractions := []string{"Falls", "Gorge", "Museum"}
		for i := 0; i < 6; i++ {
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, chase.Insert(tup("C", c(cities[rng.Intn(len(cities))]))))
			case 1:
				ops = append(ops, chase.Insert(tup("A", c(cities[rng.Intn(len(cities))]), c(attractions[rng.Intn(len(attractions))]))))
			case 2:
				ops = append(ops, chase.Insert(tup("V", c("Syracuse"), c("Conf"+cities[rng.Intn(len(cities))]))))
			case 3:
				ops = append(ops, chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))))
			}
		}
		return ops
	}
	trackers := []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}}
	for seed := int64(0); seed < 10; seed++ {
		ops := workload(seed)
		// Serial reference.
		stSerial, setSerial := travel(t)
		if _, err := serial.Execute(stSerial, setSerial, ops, simuser.New(uint64(seed))); err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		want := stSerial.Dump(1 << 30)

		for _, tr := range trackers {
			for _, workers := range []int{0, 2} {
				st, set := travel(t)
				cfg := cc.Config{
					Tracker:            tr,
					Policy:             cc.PolicyRoundRobinStep,
					User:               simuser.New(uint64(seed)),
					MaxAbortsPerUpdate: 200,
					Workers:            workers,
				}
				if _, err := cc.NewScheduler(st, set, cfg).Run(ops); err != nil {
					t.Fatalf("seed %d %s workers %d: %v", seed, tr.Name(), workers, err)
				}
				if got := st.Dump(1 << 30); got != want {
					t.Fatalf("seed %d %s workers %d: concurrent != serial\n got:\n%s\nwant:\n%s",
						seed, tr.Name(), workers, got, want)
				}
			}
		}
	}
}

func TestStratumPolicy(t *testing.T) {
	st, set := travel(t)
	sched := cc.NewScheduler(st, set, cc.Config{
		Tracker: cc.Coarse{},
		Policy:  cc.PolicyRoundRobinStratum,
		User:    simuser.New(3),
	})
	m, err := sched.Run(example31Ops())
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestCommitOrder(t *testing.T) {
	st, set := travel(t)
	sched := cc.NewScheduler(st, set, cc.Config{Tracker: cc.Coarse{}, User: simuser.New(1)})
	ops := []chase.Op{
		chase.Insert(tup("V", c("Ithaca"), c("ConfA"))),
		chase.Insert(tup("V", c("Ithaca"), c("ConfB"))),
	}
	if _, err := sched.Run(ops); err != nil {
		t.Fatal(err)
	}
	for _, txn := range sched.Txns() {
		if !txn.Committed() {
			t.Fatalf("txn %d not committed", txn.Number)
		}
	}
	for _, op := range ops {
		if !contains(st.EpochSnap(), op.Tuple) {
			t.Fatalf("%v missing from the committed state", op.Tuple)
		}
	}
	if uw := st.UncommittedWrites(); len(uw) != 0 {
		t.Fatalf("uncommitted writes survive the run: %v", uw)
	}
}

func TestAbsentUserStalls(t *testing.T) {
	st, set := travel(t)
	sched := cc.NewScheduler(st, set, cc.Config{
		Tracker:       cc.Coarse{},
		User:          simuser.Silent(),
		MaxIdleRounds: 50,
	})
	_, err := sched.Run([]chase.Op{
		chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))),
	})
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("expected stall error, got %v", err)
	}
}

// TestRunMetricsEpilogue: Run returns the run's wall
// time and Runs = Submitted + Aborts, on success and when the run fails
// (an absent user stalls it).
func TestRunMetricsEpilogue(t *testing.T) {
	for _, workers := range []int{0, 1} {
		for _, stall := range []bool{false, true} {
			st, set := travel(t)
			cfg := cc.Config{Tracker: cc.Precise{}, User: &example31User{st: st, delay: 3}, Workers: workers}
			if stall {
				cfg.User, cfg.MaxIdleRounds = simuser.Silent(), 50
			}
			m, err := cc.NewScheduler(st, set, cfg).Run(example31Ops())
			if (err != nil) != stall {
				t.Fatalf("workers=%d stall=%v: err = %v", workers, stall, err)
			}
			if m.WallTime <= 0 {
				t.Errorf("workers=%d stall=%v: WallTime = %v, want > 0", workers, stall, m.WallTime)
			}
			if m.Submitted != 2 || m.Runs != m.Submitted+m.Aborts {
				t.Errorf("workers=%d stall=%v: Runs = %d, want Submitted %d + Aborts %d",
					workers, stall, m.Runs, m.Submitted, m.Aborts)
			}
			if !stall {
				continue
			}
			// A stalled update never commits: its writes stay live, and
			// the committed state shows none of them.
			uw := st.UncommittedWrites()
			if len(uw) == 0 {
				t.Errorf("workers=%d: the stalled run left no uncommitted writes", workers)
			}
			for _, w := range uw {
				vals, ok := st.EpochSnap().Get(w.ID)
				if shown := ok == (w.Op != storage.OpDelete) && slices.Equal(vals, w.After); shown {
					t.Errorf("workers=%d: the committed state shows the stalled write %v", workers, w)
				}
			}
		}
	}
}

func TestTrackerByName(t *testing.T) {
	for _, name := range []string{"NAIVE", "COARSE", "PRECISE", "naive", "coarse", "precise"} {
		tr, err := cc.TrackerByName(name)
		if err != nil || tr == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := cc.TrackerByName("nope"); err == nil {
		t.Fatal("unknown tracker accepted")
	}
}

func TestPolicyAndModeStrings(t *testing.T) {
	if cc.PolicyRoundRobinStep.String() != "round-robin-step" ||
		cc.PolicyRoundRobinStratum.String() != "round-robin-stratum" {
		t.Fatal("policy strings")
	}
	if cc.ModePrevent.String() != "prevent" || cc.ModeFlag.String() != "flag" {
		t.Fatal("mode strings")
	}
}

func TestMetricsPerUpdateTime(t *testing.T) {
	m := cc.Metrics{}
	if m.PerUpdateTime() != 0 {
		t.Fatal("zero runs must give zero")
	}
	m.Runs = 4
	m.WallTime = 400
	if m.PerUpdateTime() != 100 {
		t.Fatalf("PerUpdateTime = %v", m.PerUpdateTime())
	}
}

// newRand is a tiny deterministic PRNG for workload construction,
// avoiding importing math/rand in multiple helpers.
type smallRand struct{ state uint64 }

func newRand(seed int64) *smallRand {
	return &smallRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *smallRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// TestConfigValidate: negative limits and worker counts, and a Policy
// or Mode outside the declared constants, are rejected by Validate and
// by both Run methods before any update is numbered or any write made.
func TestConfigValidate(t *testing.T) {
	if err := (cc.Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	ops := []chase.Op{chase.Insert(tup("C", c("Boston")))}
	for _, tc := range []struct {
		name string
		cfg  cc.Config
	}{
		{"negative MaxIdleRounds", cc.Config{MaxIdleRounds: -1}},
		{"negative MaxAbortsPerUpdate", cc.Config{MaxAbortsPerUpdate: -1}},
		{"negative Workers", cc.Config{Workers: -1}},
		{"unknown Policy", cc.Config{Policy: cc.PolicyRoundRobinStratum + 1}},
		{"unknown Mode", cc.Config{Mode: cc.ModeFlag + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Validate() == nil {
				t.Fatal("Validate accepted the config")
			}
			cfg := tc.cfg
			cfg.User = simuser.New(1)
			st, set := travel(t)
			before := st.Dump(1 << 30)
			s := cc.NewScheduler(st, set, cfg)
			if _, err := s.Run(ops); err == nil {
				t.Fatal("Run accepted the config")
			}
			if n := len(s.Txns()); n != 0 {
				t.Fatalf("Run numbered %d updates", n)
			}
			if after := st.Dump(1 << 30); after != before {
				t.Fatal("Run wrote before rejecting the config")
			}
		})
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
