package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// The sharded serial-equivalence battery: the relation-partitioned
// backend must be invisible to the semantics — every scheduler mode
// over a ShardedStore commits the same facts as the serial reference
// over a single store, up to null renaming, and leaves every mapping
// satisfied.

// shardedBackend loads a universe's initial database into a fresh
// sharded store.
func shardedBackend(t *testing.T, u *workload.Universe, shards int) storage.Backend {
	t.Helper()
	su := *u
	su.Config.Shards = shards
	st, err := su.NewBackend()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*storage.ShardedStore); !ok {
		t.Fatalf("expected a sharded backend for %d shards", shards)
	}
	return st
}

func checkBackendAgainstSerial(t *testing.T, st storage.Backend, u *workload.Universe, want map[string][]model.Tuple, label string) {
	t.Helper()
	got := st.Snap(1 << 30).VisibleFacts()
	qe := query.NewEngine(st.Snap(1 << 30))
	if vs := qe.AllViolations(u.Mappings); len(vs) != 0 {
		t.Fatalf("%s: %d violations survive", label, len(vs))
	}
	eq, err := serial.Equivalent(got, want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !eq {
		t.Errorf("%s: sharded != serial\n%s", label, serial.Explain(got, want))
	}
}

// TestShardedSerialEquivalenceOnRandomUniverses runs random universes
// over a 3-shard store through the cooperative and goroutine-parallel
// schedulers, under COARSE and PRECISE, against the single-store
// serial reference.
func TestShardedSerialEquivalenceOnRandomUniverses(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
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

		stSerial, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(uint64(seed))); err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		want := stSerial.Snap(1 << 30).VisibleFacts()

		// Cooperative round-robin over the sharded backend.
		for _, tr := range []cc.Tracker{cc.Coarse{}, cc.Precise{}} {
			st := shardedBackend(t, u, 3)
			sched := cc.NewScheduler(st, u.Mappings, cc.Config{
				Tracker:            tr,
				Policy:             cc.PolicyRoundRobinStep,
				User:               simuser.New(uint64(seed)),
				MaxAbortsPerUpdate: 500,
				Shards:             3,
			})
			if _, err := sched.Run(ops); err != nil {
				t.Fatalf("seed %d sharded cooperative %s: %v", seed, tr.Name(), err)
			}
			checkBackendAgainstSerial(t, st, u, want,
				fmt.Sprintf("seed %d sharded cooperative %s", seed, tr.Name()))
		}

		// Goroutine-parallel over the sharded backend.
		for _, workers := range []int{1, 4} {
			for _, tr := range []cc.Tracker{cc.Coarse{}, cc.Precise{}} {
				st := shardedBackend(t, u, 3)
				sched := cc.NewParallelScheduler(st, u.Mappings, cc.Config{
					Tracker:            tr,
					User:               simuser.New(uint64(seed)),
					MaxAbortsPerUpdate: 500,
					Workers:            workers,
					Shards:             3,
				})
				if _, err := sched.Run(ops); err != nil {
					t.Fatalf("seed %d shards 3 workers %d %s: %v", seed, workers, tr.Name(), err)
				}
				for _, txn := range sched.Txns() {
					if !txn.Committed() {
						t.Fatalf("seed %d shards 3 workers %d %s: update %d never committed",
							seed, workers, tr.Name(), txn.Number)
					}
				}
				checkBackendAgainstSerial(t, st, u, want,
					fmt.Sprintf("seed %d shards 3 workers %d %s", seed, workers, tr.Name()))
			}
		}
	}
}

// TestShardedParallelEquivalenceOnDuplicateHeavySeeds is the
// duplicate-heavy battery of TestParallelEquivalenceOnDuplicateHeavySeeds
// on a 3-shard backend: pool-constant seed batches with heavy content
// duplication, 8 workers, compared against the single-store serial
// reference. This workload shape is also the historical reproducer of
// the abort-removal drift hole (see abortdrift_test.go), so it doubles
// as its end-to-end regression on the sharded deployment.
func TestShardedParallelEquivalenceOnDuplicateHeavySeeds(t *testing.T) {
	u, ops := duplicateHeavySeeds(t)

	stSerial, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Execute(stSerial, u.Mappings, ops, simuser.New(7)); err != nil {
		t.Fatal(err)
	}
	want := stSerial.Snap(1 << 30).VisibleFacts()

	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		st := shardedBackend(t, u, 3)
		sched := cc.NewParallelScheduler(st, u.Mappings, cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(7),
			Workers:            8,
			MaxAbortsPerUpdate: 10000,
			Shards:             3,
		})
		if _, err := sched.Run(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkBackendAgainstSerial(t, st, u, want, fmt.Sprintf("sharded duplicate-heavy round %d", round))
	}
}

// TestShardedSetupMatchesSingleStore: the workload generator produces
// a byte-identical universe whatever the shard count — the initial
// database built through a sharded backend canonicalizes to the same
// fact list.
func TestShardedSetupMatchesSingleStore(t *testing.T) {
	base := workload.Quick()
	base.InitialTuples = 80
	base.Relations = 10
	base.Mappings = 10
	single, err := workload.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := base
	shardedCfg.Shards = 3
	sharded, err := workload.Build(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Initial) != len(sharded.Initial) {
		t.Fatalf("initial DB sizes differ: %d vs %d", len(single.Initial), len(sharded.Initial))
	}
	for i := range single.Initial {
		if !single.Initial[i].Equal(sharded.Initial[i]) {
			t.Fatalf("fact %d differs: %s vs %s", i, single.Initial[i], sharded.Initial[i])
		}
	}
}
