package experiments

import (
	"fmt"

	"youtopia/internal/workload"
)

// MulticoreStudy is the CPU-scaling half of the multi-core-truth item:
// the same seeded workload (fixed worker count, fixed reader count)
// swept across GOMAXPROCS caps, so speedup-vs-serial is finally
// measured as a function of cores instead of inferred from a 1-core
// container. Each point pins runtime.GOMAXPROCS to its cpu count for
// the duration and runs the update writers beside `readers` epoch-
// snapshot reader goroutines; the artifact reports both committed-
// update throughput and aggregate wait-free read passes per second.
//
// The first point is the serial reference (workers 0, cpus 1) with the
// same readers running, so CheckRegression can normalize both the
// update and the read axis by the run's own serial rates — the
// portable speedup numbers the multicore gate compares. With a
// dataDir every run is durable, so the study also shows whether the
// commit-ack envelope survives reader load (AckP50Millis/AckP99Millis
// ride along per point as everywhere else).
func MulticoreStudy(base workload.Config, cpus []int, workers, readers, runs int, dataDir string) ([]ParallelPoint, error) {
	if len(cpus) == 0 {
		cpus = []int{1, 2, 4}
	}
	if workers <= 0 {
		workers = 4
	}
	if readers <= 0 {
		readers = 4
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
	points := []ParallelPoint{{Workers: 0, Cpus: 1, Readers: readers}}
	for _, c := range cpus {
		if c < 1 {
			return nil, fmt.Errorf("experiments: cpu count %d out of range", c)
		}
		points = append(points, ParallelPoint{Workers: workers, Cpus: c, Readers: readers})
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
