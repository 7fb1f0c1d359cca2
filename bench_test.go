// Benchmarks regenerating the paper's evaluation figures (§6). Each
// figure/panel has a benchmark that runs the corresponding experiment
// at a reduced-but-structurally-faithful scale and reports the
// figure's quantities as benchmark metrics:
//
//	aborts/run              — panel (a) of Figures 3 and 4
//	cascading-req/run       — panel (b)
//	slowdown-precise        — panel (c), PRECISE/COARSE per-update time
//
// Full-scale reproduction (100 relations, 10000 initial tuples, 500
// updates — the exact §6 parameters) is the youtopia-bench command:
//
//	go run ./cmd/youtopia-bench -preset paper -figure both
//
// Run these benches with:
//
//	go test -bench . -benchmem
package youtopia_test

import (
	"fmt"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/experiments"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// benchBase is the reduced universe: same structure as §6 (random
// relations of arity 1..6, skewed mapping sides with joins and
// constants, initial database via update exchange, 50/50 fresh/pool
// insert values) at roughly 1/3 linear scale.
func benchBase(insertPct int) workload.Config {
	return workload.Config{
		Relations:       40,
		MinArity:        1,
		MaxArity:        6,
		Constants:       20,
		Mappings:        40,
		MaxAtomsPerSide: 3,
		InitialTuples:   3000,
		Updates:         250,
		InsertPct:       insertPct,
		Seed:            1,
	}
}

var benchSweep = []int{8, 16, 24, 32, 40}

// universes caches built universes per insert mix, so only the first
// benchmark of a process pays for one: chasing the 3,000 seed inserts
// to completion and canonicalizing the facts they leave.
var universes = map[int]*workload.Universe{}

func universe(b *testing.B, insertPct int) *workload.Universe {
	if u, ok := universes[insertPct]; ok {
		return u
	}
	u, err := workload.Build(benchBase(insertPct))
	if err != nil {
		b.Fatal(err)
	}
	universes[insertPct] = u
	return u
}

// runWorkloadOnce runs one full concurrent workload against the cached
// universe — the unit of work every figure benchmark times.
func runWorkloadOnce(b *testing.B, u *workload.Universe, mappings int, tracker cc.Tracker, run int64) cc.Metrics {
	b.Helper()
	st, err := u.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	sched := cc.NewScheduler(st, u.Mappings.Prefix(mappings), cc.Config{
		Tracker:            tracker,
		Policy:             cc.PolicyRoundRobinStep,
		User:               simuser.New(uint64(run) + 11),
		MaxAbortsPerUpdate: 10000,
	})
	m, err := sched.Run(u.GenOpsSeeded(1000 + run))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchFigurePanel benchmarks one (figure, tracker) series across the
// sweep, reporting the figure metrics. The NAIVE series runs only the
// two sparsest points, as in the paper's plots.
func benchFigurePanel(b *testing.B, insertPct int, trackerName string) {
	u := universe(b, insertPct)
	sweep := benchSweep
	if trackerName == "NAIVE" {
		sweep = benchSweep[:2]
	}
	tracker, err := cc.TrackerByName(trackerName)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range sweep {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var aborts, casc, direct float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met := runWorkloadOnce(b, u, m, tracker, int64(i))
				aborts += float64(met.Aborts)
				casc += float64(met.CascadingAbortRequests)
				direct += float64(met.DirectAbortRequests)
			}
			n := float64(b.N)
			b.ReportMetric(aborts/n, "aborts/run")
			b.ReportMetric(casc/n, "cascading-req/run")
			b.ReportMetric(direct/n, "direct-req/run")
		})
	}
}

// --- Figure 3: all-insert workload ---

func BenchmarkFigure3Naive(b *testing.B)   { benchFigurePanel(b, 100, "NAIVE") }
func BenchmarkFigure3Coarse(b *testing.B)  { benchFigurePanel(b, 100, "COARSE") }
func BenchmarkFigure3Precise(b *testing.B) { benchFigurePanel(b, 100, "PRECISE") }

// BenchmarkFigure3Slowdown reports panel (c): the per-update
// execution-time ratio of PRECISE over COARSE per sweep point.
func BenchmarkFigure3Slowdown(b *testing.B) { benchSlowdown(b, 100) }

// --- Figure 4: mixed 80/20 insert/delete workload ---

func BenchmarkFigure4Naive(b *testing.B)   { benchFigurePanel(b, 80, "NAIVE") }
func BenchmarkFigure4Coarse(b *testing.B)  { benchFigurePanel(b, 80, "COARSE") }
func BenchmarkFigure4Precise(b *testing.B) { benchFigurePanel(b, 80, "PRECISE") }

// BenchmarkFigure4Slowdown reports panel (c) for the mixed workload.
func BenchmarkFigure4Slowdown(b *testing.B) { benchSlowdown(b, 80) }

func benchSlowdown(b *testing.B, insertPct int) {
	u := universe(b, insertPct)
	for _, m := range benchSweep {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coarseT, coarseRuns := timeTracker(b, u, m, cc.Coarse{}, int64(i))
				preciseT, preciseRuns := timeTracker(b, u, m, cc.Precise{}, int64(i))
				perCoarse := coarseT / float64(coarseRuns)
				perPrecise := preciseT / float64(preciseRuns)
				if perCoarse > 0 {
					ratio += perPrecise / perCoarse
				}
			}
			b.ReportMetric(ratio/float64(b.N), "slowdown-precise")
		})
	}
}

// timeTracker runs one workload under a tracker, returning elapsed
// seconds and the number of update executions (§6 normalizes
// per-update time by submitted + aborted reruns).
func timeTracker(b *testing.B, u *workload.Universe, mappings int, tracker cc.Tracker, run int64) (float64, int) {
	b.Helper()
	start := nowSeconds()
	m := runWorkloadOnce(b, u, mappings, tracker, run)
	elapsed := nowSeconds() - start
	if m.Runs == 0 {
		return elapsed, 1
	}
	return elapsed, m.Runs
}

func nowSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// --- Parallel runtime: serial vs goroutine-parallel execution ---

// BenchmarkSchedulerWorkers runs the same seeded workload under the
// serial reference scheduler (PolicySerial) and the goroutine-parallel
// scheduler at several worker counts, reporting wall time and
// committed-update throughput. Two workload shapes are measured:
//
//	mapped    the §6 universe under a 24-mapping prefix — chases
//	          interact through the mappings, so the win comes from
//	          running conflict checks and read phases outside the
//	          exclusive phase lock;
//	disjoint  the same universe with no mappings — every update is a
//	          single insert into its own relation, the pure
//	          lock-traffic case the striped store and group-commit
//	          frontier target.
//
// On a multi-core machine the parallel series should beat serial; on
// one core it quantifies the phase-lock overhead. The committed final
// instance is serializable at every point (asserted by the cc test
// battery, not re-checked here).
func BenchmarkSchedulerWorkers(b *testing.B) {
	u := universe(b, 100)
	// runOne times only the scheduler run; store loading and workload
	// generation happen outside the benchmark clock so the serial vs
	// parallel comparison is not diluted by identical setup cost.
	runOne := func(b *testing.B, mappings, workers int, run int64) (cc.Metrics, time.Duration) {
		b.Helper()
		b.StopTimer()
		st, err := u.NewStore()
		if err != nil {
			b.Fatal(err)
		}
		cfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(uint64(run) + 29),
			MaxAbortsPerUpdate: 10000,
			Workers:            workers,
		}
		ops := u.GenOpsSeeded(3000 + run)
		b.StartTimer()
		m, elapsed, err := experiments.RunMode(st, u.Mappings.Prefix(mappings), cfg, ops)
		if err != nil {
			b.Fatal(err)
		}
		return m, elapsed
	}
	for _, shape := range []struct {
		name     string
		mappings int
	}{
		{"mapped", 24},
		{"disjoint", 0},
	} {
		b.Run(shape.name, func(b *testing.B) {
			for _, workers := range []int{0, 1, 2, 4, 8} {
				b.Run(experiments.ModeLabel(workers), func(b *testing.B) {
					var updates float64
					var elapsed time.Duration
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m, d := runOne(b, shape.mappings, workers, int64(i))
						updates += float64(m.Submitted)
						elapsed += d
					}
					if secs := elapsed.Seconds(); secs > 0 {
						b.ReportMetric(updates/secs, "upd/s")
					}
				})
			}
		})
	}
}

// --- Ablations: design choices called out in DESIGN.md ---

// BenchmarkAblationPolicy compares step-level against stratum-level
// interleaving (§4.1, §5.2): stratum scheduling shrinks interference
// windows at the cost of scheduling latitude.
func BenchmarkAblationPolicy(b *testing.B) {
	u := universe(b, 100)
	for _, pol := range []cc.Policy{cc.PolicyRoundRobinStep, cc.PolicyRoundRobinStratum} {
		b.Run(pol.String(), func(b *testing.B) {
			var aborts float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met := runPolicyOnce(b, u, pol, int64(i))
				aborts += float64(met.Aborts)
			}
			b.ReportMetric(aborts/float64(b.N), "aborts/run")
		})
	}
}

// BenchmarkAblationLatency measures the cost of slow humans (§5.2):
// each frontier answer arrives only after N scheduler polls while
// other updates keep running.
func BenchmarkAblationLatency(b *testing.B) {
	u := universe(b, 100)
	for _, lat := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("latency=%d", lat), func(b *testing.B) {
			var aborts float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := u.NewStore()
				if err != nil {
					b.Fatal(err)
				}
				user := simuser.New(uint64(i) + 3)
				user.Latency = lat
				sched := cc.NewScheduler(st, u.Mappings, cc.Config{
					Tracker: cc.Coarse{},
					User:    user,
				})
				m, err := sched.Run(u.GenOpsSeeded(2000 + int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				aborts += float64(m.Aborts)
			}
			b.ReportMetric(aborts/float64(b.N), "aborts/run")
		})
	}
}

func runPolicyOnce(b *testing.B, u *workload.Universe, pol cc.Policy, run int64) cc.Metrics {
	b.Helper()
	st, err := u.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	ops := u.GenOpsSeeded(1000 + run)
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Tracker: cc.Coarse{},
		Policy:  pol,
		User:    simuser.New(uint64(run) + 7),
	})
	m, err := sched.Run(ops)
	if err != nil {
		b.Fatal(err)
	}
	return m
}
