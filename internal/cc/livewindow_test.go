package cc_test

import (
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/simuser"
)

// TestLiveWindowMatchesFullWalk is the differential test of the live
// window: on the duplicate-heavy seeds, under every tracker, in both
// modes and at round widths 0 and 2, every write's window holds exactly the
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
						s := cc.NewScheduler(w, u.Mappings, cfg)
						w.Attach(s)
						m, err := s.Run(ops)
						if err != nil {
							t.Fatal(err)
						}
						t.Logf("%d writes checked, %d direct and %d removal candidates, %d narrowed windows; %d aborts",
							w.Writes, w.Candidates, w.Removal, w.Narrowed, m.Aborts)
						return w
					}
					w := runOnce()
					if w.Writes < len(ops) || w.Candidates == 0 || w.Narrowed == 0 {
						t.Fatal("the run did not exercise the window")
					}
					if mode == cc.ModePrevent && w.Removal == 0 {
						t.Fatal("no removal candidate was ever compared")
					}
				})
			}
		}
	}
}
