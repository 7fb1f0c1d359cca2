package experiments

import (
	"fmt"
	"strings"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// LatencyPoint is one measurement of the user-latency study.
type LatencyPoint struct {
	Latency     int
	Runs        int
	Aborts      float64
	FrontierOps float64
	WallMillis  float64
}

// LatencyStudy is the §5.2 extension experiment: the paper observes
// that scheduling around slow humans is a policy question ("if the
// frontier operations involve a table that has a good track record in
// terms of fast user response, the scheduler may choose to block in
// anticipation"). This study quantifies the baseline the paper's
// optimistic scheduler provides: how total aborts and wall time evolve
// as every user answer takes `latency` scheduler polls to arrive,
// while non-blocked updates keep running.
func LatencyStudy(base workload.Config, latencies []int, runs int) ([]LatencyPoint, error) {
	if len(latencies) == 0 {
		latencies = []int{0, 2, 4, 8, 16}
	}
	if runs <= 0 {
		runs = 3
	}
	u, err := workload.Build(base)
	if err != nil {
		return nil, err
	}
	var out []LatencyPoint
	for _, lat := range latencies {
		p := LatencyPoint{Latency: lat, Runs: runs}
		for r := 0; r < runs; r++ {
			st, err := u.NewStore()
			if err != nil {
				return nil, err
			}
			user := simuser.New(uint64(base.Seed)*17 + uint64(r))
			user.Latency = lat
			sched := cc.NewScheduler(st, u.Mappings, cc.Config{
				Tracker:            cc.Coarse{},
				Policy:             cc.PolicyRoundRobinStep,
				User:               user,
				MaxAbortsPerUpdate: maxAbortsPerUpdate,
			})
			start := time.Now()
			m, err := sched.Run(u.GenOpsSeeded(base.Seed*7919 + int64(r)))
			if err != nil {
				return nil, fmt.Errorf("experiments: latency %d run %d: %w", lat, r, err)
			}
			p.Aborts += float64(m.Aborts)
			p.FrontierOps += float64(m.FrontierOps)
			p.WallMillis += float64(time.Since(start).Milliseconds())
		}
		n := float64(runs)
		p.Aborts /= n
		p.FrontierOps /= n
		p.WallMillis /= n
		out = append(out, p)
	}
	return out, nil
}

// RenderLatency prints the study as an aligned table.
func RenderLatency(points []LatencyPoint) string {
	var b strings.Builder
	b.WriteString("user-latency study (COARSE, round-robin steps)\n")
	fmt.Fprintf(&b, "%-10s%10s%14s%12s\n", "latency", "aborts", "frontier-ops", "wall(ms)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d%10.1f%14.1f%12.1f\n", p.Latency, p.Aborts, p.FrontierOps, p.WallMillis)
	}
	return b.String()
}
