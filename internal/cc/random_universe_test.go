package cc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// TestSerializabilityOnRandomUniverses is the strongest empirical
// validation of Theorem 4.4: on randomly generated schemas, (cyclic)
// mapping sets, initial databases and workloads, the concurrent
// execution under every tracker must leave the same instance as the
// serial execution, byte for byte — and must leave every mapping
// satisfied.
func TestSerializabilityOnRandomUniverses(t *testing.T) {
	if testing.Short() {
		t.Skip("random-universe battery skipped in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.Config{
			Relations:       10,
			MinArity:        1,
			MaxArity:        3,
			Constants:       6,
			Mappings:        8,
			MaxAtomsPerSide: 2,
			InitialTuples:   30,
			Updates:         10,
			InsertPct:       80,
			Seed:            seed,
		}
		u, err := workload.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ops := u.GenOpsSeeded(500 + seed)

		// Serial reference.
		stSerial, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(uint64(seed))); err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}

		for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
			st, err := u.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			sched := cc.NewScheduler(st, u.Mappings, cc.Config{
				Tracker:            tr,
				Policy:             cc.PolicyRoundRobinStep,
				User:               simuser.New(uint64(seed)),
				MaxAbortsPerUpdate: 500,
			})
			if _, err := sched.Run(ops); err != nil {
				t.Fatalf("seed %d %s: %v", seed, tr.Name(), err)
			}
			checkAgainstSerial(t, st, u, stSerial, fmt.Sprintf("seed %d %s", seed, tr.Name()))
		}
	}
}

// checkAgainstSerial asserts that a finished store satisfies every
// mapping and dumps byte for byte as the serial reference ref does.
func checkAgainstSerial(t *testing.T, st *storage.Store, u *workload.Universe, ref *storage.Store, label string) {
	t.Helper()
	if err := st.AuditIndexes(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	qe := query.NewEngine(st.Snap(1 << 30))
	if vs := qe.AllViolations(u.Mappings); len(vs) != 0 {
		t.Fatalf("%s: %d violations survive", label, len(vs))
	}
	if st.Dump(1<<30) != ref.Dump(1<<30) {
		t.Errorf("%s: concurrent != serial\n%s", label,
			serial.Explain(st.Snap(1<<30).VisibleFacts(), ref.Snap(1<<30).VisibleFacts()))
	}
}

// TestParallelSerializabilityOnRandomUniverses runs the same random
// universes through the scheduler at several round widths and under
// every tracker, asserting the committed final instance equals the
// serial reference byte for byte: which updates share a round must not
// change the semantics of Theorem 4.4.
func TestParallelSerializabilityOnRandomUniverses(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := workload.Config{
			Relations:       10,
			MinArity:        1,
			MaxArity:        3,
			Constants:       6,
			Mappings:        8,
			MaxAtomsPerSide: 2,
			InitialTuples:   30,
			Updates:         10,
			InsertPct:       80,
			Seed:            seed,
		}
		u, err := workload.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ops := u.GenOpsSeeded(500 + seed)

		// Serial reference.
		stSerial, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(uint64(seed))); err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}

		workerCounts := []int{1, 2, 4}
		if testing.Short() {
			workerCounts = []int{2}
		}
		for _, workers := range workerCounts {
			for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
				st, err := u.NewStore()
				if err != nil {
					t.Fatal(err)
				}
				sched := cc.NewScheduler(st, u.Mappings, cc.Config{
					Tracker:            tr,
					User:               simuser.New(uint64(seed)),
					MaxAbortsPerUpdate: 500,
					Workers:            workers,
				})
				w := cc.WatchCommits(t)
				if _, err := sched.Run(ops); err != nil {
					t.Fatalf("seed %d workers %d %s: %v", seed, workers, tr.Name(), err)
				}
				for _, txn := range w.Txns(len(ops)) {
					if !txn.Committed {
						t.Fatalf("seed %d workers %d %s: update %d never committed",
							seed, workers, tr.Name(), txn.Number)
					}
				}
				checkAgainstSerial(t, st, u, stSerial,
					fmt.Sprintf("seed %d workers %d %s", seed, workers, tr.Name()))
			}
		}
	}
}

// TestParallelCheckersPerWorker: at round width 4, every txn's reads —
// PRECISE's dependency checks included — run on the scheduler's one
// checker, the run stays serial-equivalent, and its txns name exactly
// that checker.
func TestParallelCheckersPerWorker(t *testing.T) {
	cfg := goldenUniverses[1].cfg
	cfg.Seed = 2
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(902)
	stSerial, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(2)); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	for _, tr := range []cc.Tracker{cc.Coarse{}, cc.Precise{}} {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		sched := cc.NewScheduler(st, u.Mappings, cc.Config{
			Tracker: tr, User: simuser.New(2), MaxAbortsPerUpdate: 1000, Workers: workers,
		})
		w := cc.WatchCommits(t)
		if _, err := sched.Run(ops); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		checkAgainstSerial(t, st, u, stSerial, "width 4 "+tr.Name())
		checkers := map[*query.Checker]bool{}
		for _, txn := range w.Txns(len(ops)) {
			if c := txn.Checker; c != nil {
				checkers[c] = true
			}
		}
		if len(checkers) != 1 {
			t.Fatalf("%s: txns ran on %d checkers, want 1", tr.Name(), len(checkers))
		}
	}
}

// duplicateHeavySeeds is the pool-constant seed batch of the
// striped-store serializability regressions: pure inserts of pool
// constants, with heavy duplication.
func duplicateHeavySeeds(t *testing.T) (*workload.Universe, []chase.Op) {
	t.Helper()
	cfg := workload.Config{
		Relations:       10,
		MinArity:        1,
		MaxArity:        4,
		Constants:       12,
		Mappings:        12,
		MaxAtomsPerSide: 3,
		InitialTuples:   1,
		Updates:         0,
		InsertPct:       100,
		Seed:            1,
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed-batch shape: pure pool-constant inserts, heavy duplication.
	rng := rand.New(rand.NewSource(42))
	rels := u.Schema.Names()
	var ops []chase.Op
	n := 120
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		rel := rels[rng.Intn(len(rels))]
		arity := u.Schema.Arity(rel)
		vals := make([]model.Value, arity)
		for j := range vals {
			vals[j] = u.Pool[rng.Intn(len(u.Pool))]
		}
		ops = append(ops, chase.Insert(model.NewTuple(rel, vals...)))
	}
	return u, ops
}

// TestParallelEquivalenceOnDuplicateHeavySeeds regresses a conflict
// hole the striped-store PR fixed: pool-constant seed batches carry
// many content-identical inserts, and a successful insert that a
// lower-priority update later duplicates must abort and rerun as a
// no-op (the serial execution would have no-op'ed) — which requires
// real inserts to store their content probe, not just no-op inserts.
// Without that read, the parallel final state diverged from serial on
// exactly this workload shape.
func TestParallelEquivalenceOnDuplicateHeavySeeds(t *testing.T) {
	u, ops := duplicateHeavySeeds(t)

	stSerial, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(7)); err != nil {
		t.Fatal(err)
	}

	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		sched := cc.NewScheduler(st, u.Mappings, cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(7),
			Workers:            8,
			MaxAbortsPerUpdate: 10000,
		})
		if _, err := sched.Run(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkAgainstSerial(t, st, u, stSerial, fmt.Sprintf("duplicate-heavy round %d", round))
	}
}

// TestLatencyToleratedBySCheduler checks the §5.2 setting of slow
// frontier responses: with a high-latency user the scheduler keeps the
// system live (other updates proceed past the blocked ones, per the
// paper's design goal) and still drives the workload to a valid,
// fully-repaired final state. No directional claim about abort counts
// is made — aborted updates cancel their pending frontier requests, so
// latency can shift work in either direction.
func TestLatencyToleratedByScheduler(t *testing.T) {
	cfg := workload.Config{
		Relations:       12,
		MinArity:        1,
		MaxArity:        4,
		Constants:       8,
		Mappings:        14,
		MaxAtomsPerSide: 2,
		InitialTuples:   80,
		Updates:         30,
		InsertPct:       70,
		Seed:            3,
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(latency int) cc.Metrics {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		user := simuser.New(9)
		user.Latency = latency
		sched := cc.NewScheduler(st, u.Mappings, cc.Config{
			Tracker:            cc.Coarse{},
			User:               user,
			MaxAbortsPerUpdate: 1000,
		})
		m, err := sched.Run(u.GenOpsSeeded(77))
		if err != nil {
			t.Fatalf("latency %d: %v", latency, err)
		}
		// The final state must satisfy every mapping regardless of how
		// slowly the humans answered.
		qe := query.NewEngine(st.Snap(1 << 30))
		if vs := qe.AllViolations(u.Mappings); len(vs) != 0 {
			t.Fatalf("latency %d: %d violations survive", latency, len(vs))
		}
		return m
	}
	fast := run(0)
	slow := run(8)
	if fast.Runs < fast.Submitted || slow.Runs < slow.Submitted {
		t.Fatalf("incomplete runs: fast %+v slow %+v", fast, slow)
	}
	if slow.FrontierRequests == 0 {
		t.Fatalf("workload never hit a frontier; pick a denser fixture: %+v", slow)
	}
}
