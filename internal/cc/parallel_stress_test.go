package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// TestParallelSchedulerStress drives a denser synthetic universe
// through rounds of width 8, under every tracker, to shake out
// interactions between chase steps, conflict processing, frontier
// polling, cascading aborts, and the commit frontier.
func TestParallelSchedulerStress(t *testing.T) {
	u, ops := stressUniverse(t)
	for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
		t.Run(tr.Name(), func(t *testing.T) {
			st, err := u.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			sched := cc.NewScheduler(st, u.Mappings, cc.Config{
				Tracker:            tr,
				User:               simuser.New(99),
				MaxAbortsPerUpdate: 5000,
				Workers:            8,
			})
			w := cc.WatchCommits(t)
			if _, err := sched.Run(ops); err != nil {
				t.Fatal(err)
			}
			for _, txn := range w.Txns(len(ops)) {
				if !txn.Committed {
					t.Fatalf("update %d never committed", txn.Number)
				}
			}
			// The committed state must satisfy every mapping.
			qe := query.NewEngine(st.Snap(1 << 30))
			if vs := qe.AllViolations(u.Mappings); len(vs) != 0 {
				t.Fatalf("%d violations survive", len(vs))
			}
		})
	}
}

// stressUniverse is the dense synthetic universe of the stress tests
// and its seeded workload.
func stressUniverse(t *testing.T) (*workload.Universe, []chase.Op) {
	t.Helper()
	cfg := workload.Config{
		Relations:       14,
		MinArity:        1,
		MaxArity:        4,
		Constants:       8,
		Mappings:        16,
		MaxAtomsPerSide: 2,
		InitialTuples:   120,
		Updates:         60,
		InsertPct:       75,
		Seed:            11,
	}
	if testing.Short() {
		cfg.InitialTuples = 40
		cfg.Updates = 16
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u, u.GenOpsSeeded(4242)
}

// TestParallelRunIsDeterministic runs the stress universe ten times per
// round width and tracker: a run is a function of its workload,
// configuration, user and width, so every counter and every dump must
// repeat exactly.
func TestParallelRunIsDeterministic(t *testing.T) {
	u, ops := stressUniverse(t)
	// counts are the Metrics counters a run must repeat.
	type counts struct {
		Runs, Aborts, Direct, Cascading, Removal int
		Steps, Writes, FrontierOps, UserPolls    int
		CommitBatches                            int
	}
	for _, workers := range []int{2, 4, 8} {
		for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tr.Name()), func(t *testing.T) {
				var first counts
				var firstDump string
				for run := 0; run < 10; run++ {
					st, err := u.NewStore()
					if err != nil {
						t.Fatal(err)
					}
					m, err := cc.NewScheduler(st, u.Mappings, cc.Config{
						Tracker:            tr,
						User:               simuser.New(99),
						MaxAbortsPerUpdate: 5000,
						Workers:            workers,
					}).Run(ops)
					if err != nil {
						t.Fatal(err)
					}
					c := counts{m.Runs, m.Aborts, m.DirectAbortRequests, m.CascadingAbortRequests,
						m.RemovalAbortRequests, m.Steps, m.Writes, m.FrontierOps, m.UserPolls, m.CommitBatches}
					dump := st.Dump(1 << 30)
					if run == 0 {
						first, firstDump = c, dump
						continue
					}
					if c != first {
						t.Fatalf("run %d counted %+v, run 0 %+v", run, c, first)
					}
					if dump != firstDump {
						t.Fatalf("run %d left a different dump than run 0:\n got:\n%s\nwant:\n%s", run, dump, firstDump)
					}
				}
				t.Logf("%+v", first)
			})
		}
	}
}

// TestParallelSchedulerHighLatencyUsers checks liveness under slow
// frontier responses: updates blocked on a high-latency user must not
// stall a width-4 round, and the run must still converge to a
// fully-repaired state.
func TestParallelSchedulerHighLatencyUsers(t *testing.T) {
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
	if testing.Short() {
		cfg.InitialTuples = 30
		cfg.Updates = 10
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	user := simuser.New(9)
	user.Latency = 6
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker:            cc.Coarse{},
		User:               user,
		MaxAbortsPerUpdate: 5000,
		Workers:            4,
	})
	ops := u.GenOpsSeeded(77)
	w := cc.WatchCommits(t)
	if _, err := sched.Run(ops); err != nil {
		t.Fatal(err)
	}
	for _, txn := range w.Txns(len(ops)) {
		if !txn.Committed {
			t.Fatalf("update %d never committed", txn.Number)
		}
	}
	qe := query.NewEngine(st.Snap(1 << 30))
	if vs := qe.AllViolations(u.Mappings); len(vs) != 0 {
		t.Fatalf("%d violations survive", len(vs))
	}
}

// TestParallelSchedulerAbsentUser asserts a width-4 scheduler
// reports a stall instead of hanging when a frontier decision is
// needed and no user answers.
func TestParallelSchedulerAbsentUser(t *testing.T) {
	cfg := workload.Config{
		Relations:       8,
		MinArity:        1,
		MaxArity:        3,
		Constants:       6,
		Mappings:        10,
		MaxAtomsPerSide: 2,
		InitialTuples:   40,
		Updates:         12,
		InsertPct:       80,
		Seed:            5,
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker:       cc.Coarse{},
		User:          simuser.Silent(),
		MaxIdleRounds: 50,
		Workers:       4,
	})
	if _, err := sched.Run(u.GenOpsSeeded(13)); err == nil {
		t.Fatal("expected a stall error with a silent user, got nil")
	}
}

// TestParallelSchedulerEmptyWorkload checks the degenerate case.
func TestParallelSchedulerEmptyWorkload(t *testing.T) {
	u, err := workload.Build(workload.Config{
		Relations: 3, MinArity: 1, MaxArity: 2, Constants: 4,
		Mappings: 2, MaxAtomsPerSide: 1, InitialTuples: 5,
		Updates: 0, InsertPct: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{Workers: 3})
	m, err := sched.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 0 || m.Runs != 0 {
		t.Fatalf("unexpected metrics: %+v", m)
	}
}
