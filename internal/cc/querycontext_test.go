package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/workload"
)

// chaseSeam reads the chase's query-seam counters off the process-wide
// registry by name — the way /metrics and the benchmark see them.
type chaseSeam struct{ contexts, engines, recorded int64 }

func readChaseSeam() chaseSeam {
	return chaseSeam{
		contexts: obs.Default.Counter("chase_query_contexts_total").Value(),
		engines:  obs.Default.Counter("chase_query_engines_total").Value(),
		recorded: obs.Default.Counter("chase_reads_recorded_total").Value(),
	}
}

func (a chaseSeam) since(b chaseSeam) chaseSeam {
	return chaseSeam{a.contexts - b.contexts, a.engines - b.engines, a.recorded - b.recorded}
}

func randomUniverse(t *testing.T, seed int64) *workload.Universe {
	t.Helper()
	u, err := workload.Build(workload.Config{
		Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8, MaxAtomsPerSide: 2,
		InitialTuples: 30, Updates: 10, InsertPct: 80, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestOneQueryContextPerAttempt: an attempt holds one query context
// from its first query or logged read until it ends, and contexts are
// recycled, so an execution builds no more of them than the peak number
// of attempts holding one — one for the serial reference execution, at
// most the round width for disjoint updates under the scheduler. Query
// engines are borrowed per step, and steps run one at a time, so each
// execution builds one. Only the concurrent path keeps read logs.
func TestOneQueryContextPerAttempt(t *testing.T) {
	t.Run("serial.Execute", func(t *testing.T) {
		u := randomUniverse(t, 1)
		ops := u.GenOpsSeeded(501)
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		before := readChaseSeam()
		if _, err := serial.Execute(st, u.Mappings, ops, simuser.New(1)); err != nil {
			t.Fatal(err)
		}
		d := readChaseSeam().since(before)
		if d.contexts != 1 || d.engines != 1 {
			t.Fatalf("%d query contexts and %d engines for %d updates run one at a time, want 1 each", d.contexts, d.engines, len(ops))
		}
		if d.recorded != 0 {
			t.Fatalf("the serial execution recorded %d reads, want none", d.recorded)
		}
	})

	// Every update writes a relation pair of its own, so no attempt is
	// ever aborted. A round serves the lowest-numbered eligible updates,
	// so at most Workers attempts hold a context at a time.
	t.Run("ParallelScheduler workers=2", func(t *testing.T) {
		const n, workers = 40, 2
		schema := model.NewSchema()
		var mappings []*tgd.TGD
		var ops []chase.Op
		for i := 0; i < n; i++ {
			a, b := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i)
			schema.MustAddRelation(a, "x")
			schema.MustAddRelation(b, "x", "z")
			mappings = append(mappings, tgd.New(fmt.Sprintf("copy%d", i),
				[]tgd.Atom{tgd.NewAtom(a, tgd.V("x"))},
				[]tgd.Atom{tgd.NewAtom(b, tgd.V("x"), tgd.V("z"))}))
			ops = append(ops, chase.Insert(model.NewTuple(a, model.Const("v"))))
		}
		set := tgd.MustNewSet(mappings...)
		if err := set.Validate(schema); err != nil {
			t.Fatal(err)
		}
		st := storage.NewStore(schema)
		sched := cc.NewScheduler(st, set, cc.Config{Tracker: cc.Coarse{}, Workers: workers})
		w := cc.WatchCommits(t)
		before := readChaseSeam()
		m, err := sched.Run(ops)
		if err != nil {
			t.Fatal(err)
		}
		d := readChaseSeam().since(before)
		if m.Aborts != 0 || m.Runs != n {
			t.Fatalf("disjoint updates ran %d attempts with %d aborts, want %d and 0", m.Runs, m.Aborts, n)
		}
		if d.contexts < 1 || d.contexts > workers {
			t.Fatalf("%d query contexts for %d attempts at width %d, want 1..%d", d.contexts, m.Runs, workers, workers)
		}
		if d.engines != 1 {
			t.Fatalf("%d query engines for %d attempts at width %d, want 1", d.engines, m.Runs, workers)
		}
		if d.recorded == 0 {
			t.Fatal("the scheduler recorded no reads")
		}
		for _, txn := range w.Txns(n) {
			if !txn.Committed {
				t.Fatalf("update %d never committed", txn.Number)
			}
		}

		// The serial subtest's workload: the concurrent path logs its
		// reads.
		u := randomUniverse(t, 1)
		st, err = u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		before = readChaseSeam()
		if _, err := cc.NewScheduler(st, u.Mappings, cc.Config{
			Tracker: cc.Coarse{}, User: simuser.New(1), Workers: workers,
		}).Run(u.GenOpsSeeded(501)); err != nil {
			t.Fatal(err)
		}
		if d := readChaseSeam().since(before); d.recorded == 0 {
			t.Fatal("the read-log counter did not move")
		}
	})
}

// TestQueryContextsPassBetweenWorkers runs the duplicate-heavy seed
// batch — abort waves, cascades and reruns — at round width 8, where a
// context given back by one attempt, or by an abort wave's Reset, is
// taken by whichever attempt starts next. Contexts are recycled (fewer
// than attempts), never more than the updates that can hold one at
// once, one query engine serves every step, and the result still
// equals the serial execution.
func TestQueryContextsPassBetweenWorkers(t *testing.T) {
	u, ops := duplicateHeavySeeds(t)
	stSerial, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(7)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
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
		before := readChaseSeam()
		m, err := sched.Run(ops)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		d := readChaseSeam().since(before)
		t.Logf("round %d: %d attempts (%d aborts), %d query contexts", round, m.Runs, m.Aborts, d.contexts)
		if d.contexts >= int64(m.Runs) || d.contexts > int64(len(ops)) {
			t.Fatalf("round %d: %d query contexts for %d attempts of %d updates", round, d.contexts, m.Runs, len(ops))
		}
		if d.engines != 1 {
			t.Fatalf("round %d: %d query engines, want 1", round, d.engines)
		}
		checkAgainstSerial(t, st, u, stSerial, fmt.Sprintf("context recycling round %d", round))
	}
}

// TestMappingRelationsNotMutated: tgd.TGD.Relations hands every caller
// the same slice; the trackers (relation-granularity dependencies, log
// stripe selection) and the query layer (read vectors) only read it.
func TestMappingRelationsNotMutated(t *testing.T) {
	u := randomUniverse(t, 2)
	ops := u.GenOpsSeeded(502)
	want := make(map[*tgd.TGD][]string)
	for _, m := range u.Mappings.All() {
		want[m] = append([]string(nil), m.Relations()...)
	}
	for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		sched := cc.NewScheduler(st, u.Mappings, cc.Config{
			Tracker: tr, Policy: cc.PolicyRoundRobinStep, User: simuser.New(2), MaxAbortsPerUpdate: 500,
		})
		if _, err := sched.Run(ops); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for m, rels := range want {
			got := m.Relations()
			if len(got) != len(rels) {
				t.Fatalf("%s: %s relations now %v, were %v", tr.Name(), m.Name, got, rels)
			}
			for i := range rels {
				if got[i] != rels[i] {
					t.Fatalf("%s: %s relations now %v, were %v", tr.Name(), m.Name, got, rels)
				}
			}
		}
	}
}
