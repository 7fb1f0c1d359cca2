package workload

import (
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/inbox"
	"youtopia/internal/simuser"
)

// TestInboxRunMatchesInline pins the equivalence the inbox bench and
// the concurrent schedulers rely on: the same seeded workload, once
// answered inline by the simulated user and once parked in a decision
// inbox and answered asynchronously, converges on the same committed
// instance byte for byte — the Answerer and the inline user share
// simuser.ChooseOption keyed on (update, frontier ordinal, context). The inbox runs once under each scheduler (Workers
// 0 and 2).
func TestInboxRunMatchesInline(t *testing.T) {
	cfg := Quick()
	cfg.InitialTuples = 60
	cfg.Updates = 25
	u, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(99)

	run := func(withInbox bool, workers int) (string, cc.Metrics) {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		ccCfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(7),
			Workers:            workers,
			MaxAbortsPerUpdate: 10000,
		}
		var ans *Answerer
		if withInbox {
			ccCfg.Inbox = inbox.NewBox()
			ans = &Answerer{Box: ccCfg.Inbox, Seed: 7, ForceUnifyAfter: 64}
			ans.Start()
		}
		m, err := cc.NewScheduler(st, u.Mappings, ccCfg).Run(ops)
		if ans != nil {
			ans.Stop()
		}
		if err != nil {
			t.Fatal(err)
		}
		return st.Dump(1 << 30), m
	}

	inline, _ := run(false, 0)
	for _, workers := range []int{0, 2} {
		parked, m := run(true, workers)
		if m.UserPolls != 0 {
			t.Fatalf("workers=%d: inbox run made %d live user polls, want 0", workers, m.UserPolls)
		}
		if parked != inline {
			t.Fatalf("workers=%d: inbox-driven workload diverged from inline:\n got:\n%s\nwant:\n%s", workers, parked, inline)
		}
	}
}
