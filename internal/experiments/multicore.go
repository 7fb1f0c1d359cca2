package experiments

import (
	"fmt"

	"youtopia/internal/workload"
)

// MulticoreStudy is the CPU-scaling half of the multi-core-truth item:
// the same seeded workload at a fixed worker count swept across
// GOMAXPROCS caps, so speedup-vs-serial is measured as a function of
// cores. Each point pins runtime.GOMAXPROCS to its cpu count for the
// duration; the artifact reports committed-update throughput.
//
// The first point is the serial reference (workers 0, cpus 1), so
// CheckRegression can normalize every point by the run's own serial
// rate — the portable speedup numbers the multicore gate compares.
// With a dataDir every run is durable, and the commit-ack percentiles
// (AckP50Millis/AckP99Millis) ride along per point.
func MulticoreStudy(base workload.Config, cpus []int, workers, runs int, dataDir string) ([]ParallelPoint, error) {
	if len(cpus) == 0 {
		cpus = []int{1, 2, 4}
	}
	if workers <= 0 {
		workers = 4
	}
	if runs <= 0 {
		runs = 3
	}
	u, err := workload.Build(base)
	if err != nil {
		return nil, err
	}
	snapAllocs, mergeAllocs, err := MeasureHotPathAllocs(u)
	if err != nil {
		return nil, err
	}
	points := []ParallelPoint{{Workers: 0, Cpus: 1}}
	for _, c := range cpus {
		if c < 1 {
			return nil, fmt.Errorf("experiments: cpu count %d out of range", c)
		}
		points = append(points, ParallelPoint{Workers: workers, Cpus: c})
	}
	var out []ParallelPoint
	for _, p := range points {
		p.Runs = runs
		p.SnapshotAllocsPerOp = snapAllocs
		p.CommitMergeAllocsPerOp = mergeAllocs
		if err := measurePoint(u, base, &p, runs, dataDir); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
