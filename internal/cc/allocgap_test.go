package cc_test

import (
	"runtime"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// TestSchedulerAllocGapToSerial bounds what the transaction core
// allocates beyond the serial execution of the same updates, each side
// on a fresh store, in bytes per update. The scheduler's read log
// recycles its reads, and a txn's record and update are recycled at its
// commit, so the core keeps no per-update state past the live window:
// what is left is the conflict checks and the answers of several
// violations that fit no pooled read. The gap is bounded in bytes, not
// as a ratio to serial: the store both sides share getting cheaper
// raises a ratio while the gap stays put.
//
//   - On Quick() with 2,000 inserts (ops seed 3, user seed 7), cc at
//     width 1 under COARSE allocates at most 270 B per update more than
//     serial.Execute does (255 measured). Nothing else is in flight
//     there, so the gap is what one core would cost Apply. The bound
//     was a ratio of 1.10 (1.093 measured), 274 B at the serial figure
//     of the time.
//   - On parallel_sparse's shape (the §6 generator at 1,000 seed tuples,
//     40 mappings, 4,000 inserts, ops seed 1), width 2 allocates at most
//     20 B per update more than serial (12 measured). The bound was a
//     ratio of 1.05 (1.022 measured), 20.8 B at the serial figure of the
//     time, and 1.20 (1.181) while every submitted op had a Txn record
//     for the whole run.
func TestSchedulerAllocGapToSerial(t *testing.T) {
	quick := workload.Quick()
	quick.Updates = 2000
	sparse := workload.Default()
	sparse.InitialTuples, sparse.Updates = 1000, 4000
	for _, c := range []struct {
		name     string
		cfg      workload.Config
		mappings int
		opsSeed  int64
		userSeed uint64
		workers  int
		bound    float64 // bytes per update beyond serial
	}{
		{"quick/width=1", quick, 0, 3, 7, 1, 270},
		{"parallel_sparse/width=2", sparse, 40, 1, 1, 2, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			u, err := workload.Build(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			set := u.Mappings
			if c.mappings > 0 {
				set = set.Prefix(c.mappings)
			}
			ops := u.GenOpsSeeded(c.opsSeed)
			perUpdate := func(run func() error) float64 {
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				if err := run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(ops))
			}
			st, err := u.NewBackend()
			if err != nil {
				t.Fatal(err)
			}
			ser := perUpdate(func() error {
				_, err := serial.Execute(st, set, ops, simuser.New(c.userSeed))
				return err
			})
			cst, err := u.NewBackend()
			if err != nil {
				t.Fatal(err)
			}
			cfg := cc.Config{Tracker: cc.Coarse{}, User: simuser.New(c.userSeed), Workers: c.workers}
			sched := perUpdate(func() error {
				_, err := cc.NewScheduler(cst, set, cfg).Run(ops)
				return err
			})
			if got, want := cst.Dump(1<<30), st.Dump(1<<30); got != want {
				t.Fatal("the scheduler's dump differs from serial.Execute's")
			}
			gap := sched - ser
			t.Logf("serial %.0f B, cc %.0f B per update: gap %.0f B", ser, sched, gap)
			if gap > c.bound {
				t.Errorf("cc allocates %.0f B per update beyond serial.Execute, bound %.0f", gap, c.bound)
			}
		})
	}
}
