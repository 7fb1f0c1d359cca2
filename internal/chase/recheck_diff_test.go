package chase_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// TestRecheckFilterMatchesFullRecheck is the differential test of the
// filtered queue recheck: after every chase step, the queue equals the
// one a full recheck would leave (chase.CheckRechecks). It runs the
// serial chase that builds each universe, then the universe's workload
// serially, under the scheduler at round widths 0 and 2 with every
// tracker, and at both widths in flag mode — on a §6 universe
// (100 relations and mappings, a reduced initial database) and on the
// random universes of the serializability battery, with 40 updates
// each instead of 10. In these runs only flag mode has another
// update's write change a queued violation: under prevent mode the
// conflict check aborts the reader first.
func TestRecheckFilterMatchesFullRecheck(t *testing.T) {
	audit := chase.CheckRechecks(t)
	six := workload.Default()
	six.InitialTuples, six.Updates, six.InsertPct = 1000, 300, 80
	names, cfgs := []string{"§6"}, []workload.Config{six}
	for seed := int64(1); seed <= 6; seed++ {
		names = append(names, fmt.Sprintf("random seed %d", seed))
		cfgs = append(cfgs, workload.Config{
			Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8,
			MaxAtomsPerSide: 2, InitialTuples: 30, Updates: 40, InsertPct: 80, Seed: seed,
		})
	}
	for i, cfg := range cfgs {
		name := names[i]
		// A stale queue can derail a chase, so a mismatch is reported
		// before the error it may have caused.
		check := func(label string, err error) {
			t.Helper()
			if msg := audit.Mismatch(); msg != "" {
				t.Fatalf("%s %s: filtered recheck differs from a full one at %s", name, label, msg)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
		}
		u, err := workload.Build(cfg)
		check("build", err)
		ops := u.GenOpsSeeded(500 + cfg.Seed)
		user := func() *simuser.User { return simuser.New(uint64(cfg.Seed)) }
		run := func(label string, exec func() error) {
			t.Helper()
			check(label, exec())
		}
		run("serial", func() error {
			st, err := u.NewStore()
			if err != nil {
				return err
			}
			_, err = serial.Execute(st, u.Mappings, ops, user())
			return err
		})
		for _, mode := range []cc.Mode{cc.ModePrevent, cc.ModeFlag} {
			for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
				if mode == cc.ModeFlag && tr.Name() != "COARSE" {
					continue // flag mode tracks no dependencies
				}
				cfg := cc.Config{Tracker: tr, Mode: mode, User: user(), MaxAbortsPerUpdate: 500}
				run(fmt.Sprintf("cooperative %s %s", mode, tr.Name()), func() error {
					st, err := u.NewStore()
					if err != nil {
						return err
					}
					_, err = cc.NewScheduler(st, u.Mappings, cfg).Run(ops)
					return err
				})
				cfg.User, cfg.Workers = user(), 2
				run(fmt.Sprintf("width 2 %s %s", mode, tr.Name()), func() error {
					st, err := u.NewStore()
					if err != nil {
						return err
					}
					_, err = cc.NewScheduler(st, u.Mappings, cfg).Run(ops)
					return err
				})
			}
		}
	}
	t.Logf("%d rechecks compared over %d queued entries, %d not re-evaluated",
		audit.Steps.Load(), audit.Entries.Load(), audit.Skipped.Load())
	if audit.Skipped.Load() == 0 {
		t.Fatal("the filter re-evaluated every entry: the comparison tested nothing")
	}
}
