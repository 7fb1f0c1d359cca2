package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/simuser"
)

// TestLiveWindowMatchesFullWalk is the differential test of the live
// window: on the duplicate-heavy seeds, under every tracker, in both
// modes and on both schedulers, every write's window holds exactly the
// direct and removal candidates the full walk of all txns finds
// (cc.WindowWatch), so the window misses no victim.
func TestLiveWindowMatchesFullWalk(t *testing.T) {
	u, ops := duplicateHeavySeeds(t)
	for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
		for _, mode := range []cc.Mode{cc.ModePrevent, cc.ModeFlag} {
			for _, workers := range []int{0, 2} {
				name := fmt.Sprintf("%s/%s/workers=%d", tr.Name(), mode, workers)
				t.Run(name, func(t *testing.T) {
					runOnce := func() *cc.WindowWatch {
						st, err := u.NewStore()
						if err != nil {
							t.Fatal(err)
						}
						w := cc.WatchWindow(t, st)
						cfg := cc.Config{Tracker: tr, Mode: mode, User: simuser.New(7), Workers: workers, MaxAbortsPerUpdate: 10000}
						var run func([]chase.Op) (cc.Metrics, error)
						if workers == 0 {
							s := cc.NewScheduler(w, u.Mappings, cfg)
							w.Attach(s)
							run = s.Run
						} else {
							s := cc.NewParallelScheduler(w, u.Mappings, cfg)
							w.Attach(s)
							run = s.Run
						}
						m, err := run(ops)
						if err != nil {
							t.Fatal(err)
						}
						t.Logf("%d writes checked, %d direct and %d removal candidates, %d narrowed windows; %d aborts",
							w.Writes, w.Candidates, w.Removal, w.Narrowed, m.Aborts)
						return w
					}
					// Two workers interleave as the Go scheduler decides,
					// and on a loaded machine they can run the updates one
					// after another, leaving no started txn above a writer
					// to compare. Every run's windows are checked; a run
					// that compared no direct candidate is repeated, up to
					// three runs in all.
					attempts := 1
					if workers > 0 {
						attempts = 3
					}
					for a := 1; ; a++ {
						w := runOnce()
						if w.Writes >= len(ops) && w.Candidates > 0 && w.Narrowed > 0 {
							if mode == cc.ModePrevent && w.Removal == 0 {
								t.Fatal("no removal candidate was ever compared")
							}
							break
						}
						if a == attempts {
							t.Fatal("the run did not exercise the window")
						}
					}
				})
			}
		}
	}
}
