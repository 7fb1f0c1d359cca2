package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/obs"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// TestCoarseWriterSetsMatchLogScan holds COARSE's writer-set scan to
// the record-copy computation it replaced (cc.AuditCoarse): on every
// read of the random-universe battery and of the §6 golden universes,
// under the cooperative scheduler (step and stratum policies) and the
// parallel one, the writers charged must be exactly the writers of the
// copied records a violation read ranges over or a structural read's
// answer depends on. Flag mode records the same reads and is left out.
func TestCoarseWriterSetsMatchLogScan(t *testing.T) {
	type battery struct {
		name string
		u    *workload.Universe
		ops  []chase.Op
		seed uint64
	}
	var batteries []battery
	for seed := int64(1); seed <= 6; seed++ {
		u := randomUniverse(t, seed)
		batteries = append(batteries, battery{fmt.Sprintf("random universe %d", seed), u, u.GenOpsSeeded(500 + seed), uint64(seed)})
	}
	for _, gu := range goldenUniverses {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := gu.cfg
			cfg.Seed = seed
			u, err := workload.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batteries = append(batteries, battery{fmt.Sprintf("§6 %s %d", gu.name, seed), u, u.GenOpsSeeded(900 + seed), uint64(seed)})
		}
	}
	if testing.Short() {
		batteries = batteries[:2]
	}

	type run struct {
		name string
		exec func(tr cc.Tracker, b battery) error
	}
	runs := []run{
		{"step", func(tr cc.Tracker, b battery) error {
			return runCooperative(tr, b.u, b.ops, b.seed, cc.PolicyRoundRobinStep)
		}},
		{"stratum", func(tr cc.Tracker, b battery) error {
			return runCooperative(tr, b.u, b.ops, b.seed, cc.PolicyRoundRobinStratum)
		}},
		{"parallel", func(tr cc.Tracker, b battery) error {
			st, err := b.u.NewStore()
			if err != nil {
				return err
			}
			_, err = cc.NewScheduler(st, b.u.Mappings, cc.Config{
				Tracker: tr, User: simuser.New(b.seed), MaxAbortsPerUpdate: 1000, Workers: 2,
			}).Run(b.ops)
			return err
		}},
	}
	reads, charged := map[query.Kind]int{}, map[query.Kind]int{}
	for _, b := range batteries {
		for _, r := range runs {
			tr, audit := cc.AuditCoarse()
			if err := r.exec(tr, b); err != nil {
				t.Fatalf("%s, %s: %v", b.name, r.name, err)
			}
			if msg := audit.Mismatch(); msg != "" {
				t.Fatalf("%s, %s: %s", b.name, r.name, msg)
			}
			for k, n := range audit.Reads {
				reads[k] += n
				charged[k] += audit.Charged[k]
			}
		}
	}
	t.Logf("reads compared by kind %v, with a nonempty writer set %v", reads, charged)
	for _, k := range []query.Kind{query.KindViolation, query.KindContent, query.KindMoreSpecific, query.KindNullOcc} {
		if charged[k] == 0 {
			t.Errorf("no %s read was charged a writer: the comparison is vacuous for it", k)
		}
	}
}

func runCooperative(tr cc.Tracker, u *workload.Universe, ops []chase.Op, seed uint64, policy cc.Policy) error {
	st, err := u.NewStore()
	if err != nil {
		return err
	}
	_, err = cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker: tr, Policy: policy, User: simuser.New(seed), MaxAbortsPerUpdate: 1000,
	}).Run(ops)
	return err
}

// TestOneQueryEnginePerScheduler: every chase step runs on its chase
// engine's one query engine, so a scheduler with a window of 100
// updates in flight —
// frontier parks, aborts and reruns included — builds exactly one, at
// width 0 and at width 2, however many attempts hold a query context
// at once.
func TestOneQueryEnginePerScheduler(t *testing.T) {
	engines := obs.Default.Counter("chase_query_engines_total")
	u, err := workload.Build(workload.Config{
		Relations: 12, MinArity: 1, MaxArity: 4, Constants: 8, Mappings: 16,
		MaxAtomsPerSide: 3, InitialTuples: 60, Updates: 100, InsertPct: 80, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(902)
	if len(ops) != 100 {
		t.Fatalf("%d ops, want a window of 100", len(ops))
	}

	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	before, contexts := engines.Value(), readChaseSeam()
	m, err := cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker: cc.Coarse{}, Policy: cc.PolicyRoundRobinStep, User: simuser.New(2), MaxAbortsPerUpdate: 1000,
	}).Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	d := readChaseSeam().since(contexts)
	t.Logf("width 0: %d attempts (%d aborts), %d query contexts", m.Runs, m.Aborts, d.contexts)
	if got := engines.Value() - before; got != 1 {
		t.Fatalf("the width-0 scheduler built %d query engines for %d attempts, want 1", got, m.Runs)
	}
	if m.Aborts == 0 || d.contexts < 2 {
		t.Fatalf("%d aborts and %d contexts: the window never held two attempts at once", m.Aborts, d.contexts)
	}

	const workers = 2
	st, err = u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	before = engines.Value()
	m, err = cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker: cc.Coarse{}, User: simuser.New(2), MaxAbortsPerUpdate: 1000, Workers: workers,
	}).Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := engines.Value() - before; got != 1 {
		t.Fatalf("the width-%d scheduler built %d query engines for %d attempts, want 1", workers, got, m.Runs)
	}
}
