// Package experiments reproduces the paper's evaluation (§6): the
// comparison of the NAIVE, COARSE and PRECISE cascading-abort
// algorithms over synthetic workloads, sweeping the number of mappings
// from sparse to dense. Figure 3 uses an all-insert workload, Figure 4
// a mixed workload of eighty percent inserts and twenty percent
// deletes; each figure reports total aborts, purely cascading abort
// requests, and the per-update execution-time slowdown of PRECISE
// relative to COARSE.
//
// Beside the figures it runs two studies of the scheduler: the
// round-width study (ParallelStudy), the serial reference against the
// scheduler's round widths, in memory or durable, and the decision-inbox
// study (InboxStudy), busy-repoll answering against parking in the inbox
// with its deadline policy answering. Their runs replay from their
// seeds, so CheckCounts gates their counts exactly against committed
// baselines; their walls are reported and never gated.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// Options parameterize a figure reproduction.
type Options struct {
	// Base is the workload configuration; Base.Mappings must cover the
	// largest sweep point and Base.InsertPct selects the figure's
	// workload mix.
	Base workload.Config
	// Sweep lists the mapping counts (paper: 20, 40, 60, 80, 100).
	Sweep []int
	// Trackers lists the algorithms to compare (default all three).
	Trackers []string
	// Runs is the number of runs averaged per data point (paper: 100).
	Runs int
	// NaivePoints caps how many sweep points NAIVE executes; the paper
	// plots only its first few points because it degenerates. 0 means
	// all points.
	NaivePoints int
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
}

// maxAbortsPerUpdate bounds the restarts of one update in every
// study's scheduler runs, guarding against degenerate runs.
const maxAbortsPerUpdate = 10000

// DefaultSweep is the paper's mapping-count axis.
var DefaultSweep = []int{20, 40, 60, 80, 100}

// Point is one averaged data point of a figure.
type Point struct {
	Mappings               int
	Tracker                string
	Runs                   int
	Aborts                 float64
	CascadingAbortRequests float64
	DirectAbortRequests    float64
	UpdatesRun             float64
	PerUpdateMicros        float64
	FrontierOps            float64
}

// Figure holds a reproduced figure: its points plus the derived
// slowdown series.
type Figure struct {
	Name     string
	Workload string
	Sweep    []int
	Trackers []string
	Points   []Point
}

// Run reproduces one figure.
func Run(name string, opts Options) (*Figure, error) {
	if len(opts.Sweep) == 0 {
		opts.Sweep = DefaultSweep
	}
	if len(opts.Trackers) == 0 {
		opts.Trackers = []string{"NAIVE", "COARSE", "PRECISE"}
	}
	if opts.Runs == 0 {
		opts.Runs = 3
	}
	maxSweep := 0
	for _, m := range opts.Sweep {
		if m > maxSweep {
			maxSweep = m
		}
	}
	if opts.Base.Mappings < maxSweep {
		return nil, fmt.Errorf("experiments: Base.Mappings = %d < largest sweep point %d",
			opts.Base.Mappings, maxSweep)
	}

	u, err := workload.Build(opts.Base)
	if err != nil {
		return nil, err
	}

	wl := "all-insert"
	if opts.Base.InsertPct < 100 {
		wl = fmt.Sprintf("mixed %d/%d insert/delete", opts.Base.InsertPct, 100-opts.Base.InsertPct)
	}
	fig := &Figure{Name: name, Workload: wl, Sweep: opts.Sweep, Trackers: opts.Trackers}

	for _, m := range opts.Sweep {
		prefix := u.Mappings.Prefix(m)
		for ti, trName := range opts.Trackers {
			if trName == "NAIVE" && opts.NaivePoints > 0 {
				idx := indexOf(opts.Sweep, m)
				if idx >= opts.NaivePoints {
					continue
				}
			}
			var acc Point
			acc.Mappings = m
			acc.Tracker = trName
			acc.Runs = opts.Runs
			for r := 0; r < opts.Runs; r++ {
				tracker, err := cc.TrackerByName(trName)
				if err != nil {
					return nil, err
				}
				opsRng := rand.New(rand.NewSource(opts.Base.Seed*1_000_003 + int64(r)))
				ops := u.GenOps(opsRng)
				st, err := u.NewStore()
				if err != nil {
					return nil, err
				}
				sched := cc.NewScheduler(st, prefix, cc.Config{
					Tracker:            tracker,
					Policy:             cc.PolicyRoundRobinStep,
					User:               simuser.New(uint64(opts.Base.Seed)*31 + uint64(r)),
					MaxAbortsPerUpdate: maxAbortsPerUpdate,
				})
				start := time.Now()
				met, err := sched.Run(ops)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s m=%d run=%d: %w", trName, m, r, err)
				}
				elapsed := time.Since(start)
				acc.Aborts += float64(met.Aborts)
				acc.CascadingAbortRequests += float64(met.CascadingAbortRequests)
				acc.DirectAbortRequests += float64(met.DirectAbortRequests)
				acc.UpdatesRun += float64(met.Runs)
				acc.FrontierOps += float64(met.FrontierOps)
				if met.Runs > 0 {
					acc.PerUpdateMicros += float64(elapsed.Microseconds()) / float64(met.Runs)
				}
			}
			n := float64(opts.Runs)
			acc.Aborts /= n
			acc.CascadingAbortRequests /= n
			acc.DirectAbortRequests /= n
			acc.UpdatesRun /= n
			acc.PerUpdateMicros /= n
			acc.FrontierOps /= n
			fig.Points = append(fig.Points, acc)
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress,
					"%s m=%d %s: aborts=%.1f cascading-req=%.1f per-update=%.0fus\n",
					name, m, trName, acc.Aborts, acc.CascadingAbortRequests, acc.PerUpdateMicros)
			}
			_ = ti
		}
	}
	return fig, nil
}

// Figure3 reproduces Figure 3 (all-insert workload).
func Figure3(base workload.Config, opts Options) (*Figure, error) {
	base.InsertPct = 100
	opts.Base = base
	return Run("Figure 3", opts)
}

// Figure4 reproduces Figure 4 (mixed 80/20 workload).
func Figure4(base workload.Config, opts Options) (*Figure, error) {
	base.InsertPct = 80
	opts.Base = base
	return Run("Figure 4", opts)
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// point returns the point for (mappings, tracker), if present.
func (f *Figure) point(m int, tracker string) (Point, bool) {
	for _, p := range f.Points {
		if p.Mappings == m && p.Tracker == tracker {
			return p, true
		}
	}
	return Point{}, false
}

// Slowdown returns the (c) panel: per-update time of PRECISE divided
// by COARSE, per sweep point where both ran.
func (f *Figure) Slowdown() map[int]float64 {
	out := make(map[int]float64)
	for _, m := range f.Sweep {
		pc, okC := f.point(m, "COARSE")
		pp, okP := f.point(m, "PRECISE")
		if okC && okP && pc.PerUpdateMicros > 0 {
			out[m] = pp.PerUpdateMicros / pc.PerUpdateMicros
		}
	}
	return out
}

// Render prints the figure's three panels as aligned text tables, the
// same series the paper plots.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s workload), avg of %d run(s)\n", f.Name, f.Workload, runsOf(f))
	panel := func(title string, get func(Point) float64) {
		fmt.Fprintf(&b, "\n%s\n", title)
		fmt.Fprintf(&b, "%-10s", "mappings")
		for _, tr := range f.Trackers {
			fmt.Fprintf(&b, "%12s", tr)
		}
		b.WriteByte('\n')
		for _, m := range f.Sweep {
			fmt.Fprintf(&b, "%-10d", m)
			for _, tr := range f.Trackers {
				if p, ok := f.point(m, tr); ok {
					fmt.Fprintf(&b, "%12.1f", get(p))
				} else {
					fmt.Fprintf(&b, "%12s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	panel("(a) total number of aborts", func(p Point) float64 { return p.Aborts })
	panel("(b) cascading abort requests", func(p Point) float64 { return p.CascadingAbortRequests })

	fmt.Fprintf(&b, "\n(c) slowdown of PRECISE vs COARSE (per-update execution time ratio)\n")
	fmt.Fprintf(&b, "%-10s%12s%14s%14s\n", "mappings", "slowdown", "COARSE(us)", "PRECISE(us)")
	slow := f.Slowdown()
	keys := make([]int, 0, len(slow))
	for m := range slow {
		keys = append(keys, m)
	}
	sort.Ints(keys)
	for _, m := range keys {
		pc, _ := f.point(m, "COARSE")
		pp, _ := f.point(m, "PRECISE")
		fmt.Fprintf(&b, "%-10d%12.2f%14.0f%14.0f\n", m, slow[m], pc.PerUpdateMicros, pp.PerUpdateMicros)
	}
	return b.String()
}

// CSV renders every point as comma-separated values with a header.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,workload,mappings,tracker,runs,aborts,cascading_abort_requests,direct_abort_requests,updates_run,per_update_us,frontier_ops\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			f.Name, f.Workload, p.Mappings, p.Tracker, p.Runs, p.Aborts,
			p.CascadingAbortRequests, p.DirectAbortRequests, p.UpdatesRun,
			p.PerUpdateMicros, p.FrontierOps)
	}
	return b.String()
}

func runsOf(f *Figure) int {
	if len(f.Points) == 0 {
		return 0
	}
	return f.Points[0].Runs
}
