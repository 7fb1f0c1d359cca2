package experiments

import (
	"math/rand"
	"os"
	"runtime/pprof"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// rngFor matches the experiment harness's per-run workload seed.
func rngFor() *rand.Rand {
	return rand.New(rand.NewSource(1*1_000_003 + 0))
}

func TestProfilePrecise(t *testing.T) {
	if os.Getenv("YOUTOPIA_PROFILE") == "" {
		t.Skip("profiling run only")
	}
	cfg := workload.Default()
	cfg.InsertPct = 80
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := u.NewStore()
	f, _ := os.Create("/tmp/youtopia_precise.pprof")
	pprof.StartCPUProfile(f)
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker: cc.Precise{}, Policy: cc.PolicyRoundRobinStep,
		User: simuser.New(uint64(1)*31 + 0), MaxAbortsPerUpdate: maxAbortsPerUpdate,
	})
	m, err := sched.Run(u.GenOps(rngFor()))
	pprof.StopCPUProfile()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("metrics: %+v", m)
}
