package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

// ModeLabel names an execution mode by its worker count: 0 is the
// serial reference, anything positive the goroutine-parallel runtime.
func ModeLabel(workers int) string {
	if workers == 0 {
		return "serial"
	}
	return fmt.Sprintf("workers=%d", workers)
}

// RunMode executes one workload under the study's execution
// convention: cfg.Workers == 0 selects the serial reference
// (PolicySerial on the cooperative scheduler), any positive count
// runs cc.ParallelScheduler on that many goroutines. It returns the
// metrics together with the scheduler's wall time (setup excluded).
// The benches and examples share it so the serial-vs-parallel
// comparison stays on one convention.
func RunMode(st storage.Backend, set *tgd.Set, cfg cc.Config, ops []chase.Op) (cc.Metrics, time.Duration, error) {
	if cfg.Trace == nil {
		cfg.Trace = studyTrace
	}
	start := time.Now()
	var m cc.Metrics
	var err error
	if cfg.Workers == 0 {
		cfg.Policy = cc.PolicySerial
		m, err = cc.NewScheduler(st, set, cfg).Run(ops)
	} else {
		m, err = cc.NewParallelScheduler(st, set, cfg).Run(ops)
	}
	return m, time.Since(start), err
}

// ParallelPoint is one measurement of the parallel-runtime study.
type ParallelPoint struct {
	// Workers is the goroutine count; 0 denotes the serial reference
	// execution (PolicySerial on the cooperative scheduler).
	Workers    int
	Runs       int
	Aborts     float64
	WallMillis float64
	// UpdatesPerSec is committed-update throughput: Submitted / wall.
	UpdatesPerSec float64
	// WALSyncs is the mean number of log fsyncs per run — zero for
	// in-memory studies; for durable studies (DataDir set) the sync
	// pipeline coalesces consecutive commit batches, so WALSyncs below
	// the commit-batch (and far below the update) count is the group
	// commit plus pipelined-sync amortization at work.
	WALSyncs float64 `json:",omitempty"`
	// CommitBatches is the mean number of commit-frontier drains per
	// run; WALSyncs/CommitBatches < 1 is observable coalescing.
	CommitBatches float64 `json:",omitempty"`
	// AckP50Millis / AckP99Millis are the mean commit-acknowledgment
	// latency percentiles (frontier drain to covering fsync) per run —
	// the latency side of the pipelined commit's latency/throughput
	// trade. Zero for in-memory studies.
	AckP50Millis float64 `json:",omitempty"`
	AckP99Millis float64 `json:",omitempty"`
	// SnapshotAllocsPerOp and CommitMergeAllocsPerOp are steady-state
	// heap allocations of the two hot coordination steps (conflict-
	// candidate collection, commit-batch merge), measured once per
	// study and attached to every point. CheckRegression gates them
	// alongside throughput; both are expected to be zero.
	SnapshotAllocsPerOp    float64 `json:"SnapshotAllocsPerOp"`
	CommitMergeAllocsPerOp float64 `json:"CommitMergeAllocsPerOp"`
	// Cpus is the GOMAXPROCS cap the point was pinned to; 0 means the
	// point ran at the process default (pre-multicore artifacts and the
	// plain worker study). CheckRegression treats 0 and 1 as
	// the same mode so old baselines keep matching.
	Cpus int `json:",omitempty"`
	// NumCPU and GoMaxProcs record the hardware the point actually ran
	// on — runtime.NumCPU and the effective GOMAXPROCS — so published
	// artifacts are attributable to a runner generation.
	NumCPU     int `json:",omitempty"`
	GoMaxProcs int `json:",omitempty"`
	// Readers is the count of concurrent epoch-snapshot reader
	// goroutines the point ran beside the writers; ReadsPerSec is their
	// aggregate full-database read-pass throughput. Both zero outside
	// the multicore study.
	Readers     int     `json:",omitempty"`
	ReadsPerSec float64 `json:",omitempty"`
}

// Label names the point's execution mode, including the GOMAXPROCS
// cap when the point was pinned to one.
func (p ParallelPoint) Label() string {
	label := ModeLabel(p.Workers)
	if p.Cpus > 0 {
		label = fmt.Sprintf("%s,cpus=%d", label, p.Cpus)
	}
	return label
}

// ParallelStudy compares the serial reference execution against the
// goroutine-parallel scheduler across a sweep of worker counts on the
// same seeded workload. Each point reports mean wall time and
// throughput; on a multi-core machine the parallel points should beat
// the serial one, and the committed final instance is serializable at
// every point (the property the cc tests assert).
//
// With a non-empty dataDir every run executes against a write-ahead-
// logged store rooted in a per-run subdirectory (one fsync per commit
// batch), so the study measures durable throughput; the wall time
// includes the syncs but not the one-off seed build. Empty keeps the
// pre-durability in-memory measurement.
func ParallelStudy(base workload.Config, workers []int, runs int, dataDir string) ([]ParallelPoint, error) {
	if len(workers) == 0 {
		workers = []int{0, 1, 2, 4, 8}
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
	var out []ParallelPoint
	for _, w := range workers {
		p := ParallelPoint{Workers: w, Runs: runs,
			SnapshotAllocsPerOp: snapAllocs, CommitMergeAllocsPerOp: mergeAllocs}
		if err := measurePoint(u, base, &p, runs, dataDir); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// measurePoint runs one study point — a (workers, cpus) mode — runs
// times and folds the means into p. The universe is shared across
// points; each run gets a fresh store (and, durable, a fresh WAL
// directory).
func measurePoint(u *workload.Universe, base workload.Config, p *ParallelPoint, runs int, dataDir string) error {
	p.NumCPU = runtime.NumCPU()
	if p.Cpus > 0 {
		prev := runtime.GOMAXPROCS(p.Cpus)
		defer runtime.GOMAXPROCS(prev)
	}
	p.GoMaxProcs = runtime.GOMAXPROCS(0)
	rels := u.Schema.SortedNames()
	var updates, readPasses float64
	for r := 0; r < runs; r++ {
		var st *storage.Store
		var mgr *wal.Manager
		var err error
		if dataDir == "" {
			st, err = u.NewStore()
		} else {
			dir := filepath.Join(dataDir, fmt.Sprintf("w%d-c%d-r%d", p.Workers, p.Cpus, r))
			st, mgr, err = u.OpenDurableStore(dir, wal.Options{})
		}
		if err != nil {
			return err
		}
		cfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(uint64(base.Seed)*31 + uint64(r)),
			MaxAbortsPerUpdate: 10000,
			Workers:            p.Workers,
		}
		ops := u.GenOpsSeeded(base.Seed*6151 + int64(r))
		// The read-heavy side: p.Readers goroutines loop wait-free
		// epoch-snapshot passes over the whole database while the
		// writers run, counting completed passes. Their throughput is
		// the quantity the multicore study expects to scale with cores.
		var passes atomic.Int64
		var stopReaders chan struct{}
		var readerWG sync.WaitGroup
		if p.Readers > 0 {
			stopReaders = make(chan struct{})
			for i := 0; i < p.Readers; i++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					for {
						select {
						case <-stopReaders:
							return
						default:
						}
						sn := st.EpochSnap()
						for _, rel := range rels {
							sn.CountRel(rel)
						}
						passes.Add(1)
					}
				}()
			}
		}
		m, elapsed, err := RunMode(st, u.Mappings, cfg, ops)
		if stopReaders != nil {
			close(stopReaders)
			readerWG.Wait()
		}
		if mgr != nil {
			if cerr := mgr.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("experiments: %s run %d: %w", p.Label(), r, err)
		}
		p.Aborts += float64(m.Aborts)
		p.WallMillis += float64(elapsed.Milliseconds())
		p.WALSyncs += float64(m.WALSyncs)
		p.CommitBatches += float64(m.CommitBatches)
		p.AckP50Millis += float64(m.CommitAckP50) / float64(time.Millisecond)
		p.AckP99Millis += float64(m.CommitAckP99) / float64(time.Millisecond)
		if secs := elapsed.Seconds(); secs > 0 {
			updates += float64(m.Submitted) / secs
			readPasses += float64(passes.Load()) / secs
		}
	}
	n := float64(runs)
	p.Aborts /= n
	p.WallMillis /= n
	p.WALSyncs /= n
	p.CommitBatches /= n
	p.AckP50Millis /= n
	p.AckP99Millis /= n
	p.UpdatesPerSec = updates / n
	if p.Readers > 0 {
		p.ReadsPerSec = readPasses / n
	}
	return nil
}

// MeasureHotPathAllocs measures the steady-state heap allocations per
// operation of the two hottest coordination steps the ISSUE-4 rework
// made allocation-free: conflict-candidate collection (published
// read-prefix records into a reusable scratch) and the commit-batch
// merge (per-writer log slices into the store's scratch buffer). The
// numbers ride along in every study point so the CI regression gate
// catches allocation churn creeping back into either step.
func MeasureHotPathAllocs(u *workload.Universe) (snapshot, merge float64, err error) {
	// testing.AllocsPerRun is an ordinary function, fine outside test
	// binaries (flag registration only happens in testing.Init).
	snapshot = testing.AllocsPerRun(200, cc.CandidateProbe(64))

	st, err := u.NewStore()
	if err != nil {
		return 0, 0, err
	}
	// Give a handful of writers live logs to merge: fresh-null tuples
	// can never collapse onto existing content, so every insert is a
	// real write.
	rels := u.Schema.SortedNames()
	writers := []int{1, 2, 3}
	for i, w := range writers {
		for j := 0; j < 8; j++ {
			rel := rels[(i*8+j)%len(rels)]
			vals := make([]model.Value, u.Schema.Arity(rel))
			for k := range vals {
				vals[k] = st.FreshNull()
			}
			if _, _, _, err := st.Insert(w, model.NewTuple(rel, vals...)); err != nil {
				return 0, 0, err
			}
		}
	}
	merge = testing.AllocsPerRun(200, st.CommitMergeProbe(writers))
	return snapshot, merge, nil
}

// ParallelJSON renders the study as indented JSON — the
// BENCH_parallel.json artifact CI uploads and gates regressions on.
func ParallelJSON(points []ParallelPoint) ([]byte, error) {
	return json.MarshalIndent(points, "", "  ")
}

// LoadParallelJSON reads a study previously written by ParallelJSON.
func LoadParallelJSON(path string) ([]ParallelPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var points []ParallelPoint
	if err := json.Unmarshal(data, &points); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	return points, nil
}

// CheckRegression compares a fresh parallel study against a committed
// baseline and returns an error when any shared mode's throughput
// regressed by more than tolerancePct percent. Raw upd/s is
// machine-dependent, so when both studies carry a serial reference
// point (workers == 0) each mode is first normalized by its own run's
// serial throughput — the parallel-speedup ratio — making the gate
// portable across CI runner generations; without a serial point the
// raw numbers are compared.
//
// The hot-path allocation probes are gated alongside throughput:
// allocs/op, unlike upd/s, is machine-independent, so the comparison
// is direct — the current number may exceed the baseline by at most
// tolerancePct percent AND half an allocation (the absolute slack is
// what keeps a zero-allocation baseline meaningful: 0 -> 0.4 passes,
// 0 -> 1 fails).
func CheckRegression(current, baseline []ParallelPoint, tolerancePct float64) error {
	// A mode is a (workers, cpus) pair; cpu counts 0 and 1 both mean
	// "default cap", so pre-multicore baselines keep matching.
	cpusOf := func(p ParallelPoint) int {
		if p.Cpus < 1 {
			return 1
		}
		return p.Cpus
	}
	findMode := func(points []ParallelPoint, workers, cpus int) (ParallelPoint, bool) {
		for _, p := range points {
			if p.Workers == workers && cpusOf(p) == cpus {
				return p, true
			}
		}
		return ParallelPoint{}, false
	}
	// The serial reference is matched on workers alone: a study carries
	// at most one, whatever cpu cap it ran against.
	find := func(points []ParallelPoint, workers int) (ParallelPoint, bool) {
		for _, p := range points {
			if p.Workers == workers {
				return p, true
			}
		}
		return ParallelPoint{}, false
	}
	curSerial, cs := find(current, 0)
	baseSerial, bs := find(baseline, 0)
	normalized := cs && bs && curSerial.UpdatesPerSec > 0 && baseSerial.UpdatesPerSec > 0
	readNormalized := cs && bs && curSerial.ReadsPerSec > 0 && baseSerial.ReadsPerSec > 0
	var failures []string
	for _, bp := range baseline {
		cp, ok := findMode(current, bp.Workers, cpusOf(bp))
		if !ok {
			continue
		}
		if bp.UpdatesPerSec > 0 && !(normalized && bp.Workers == 0) {
			cur, base := cp.UpdatesPerSec, bp.UpdatesPerSec
			metric := "upd/s"
			if normalized {
				cur /= curSerial.UpdatesPerSec
				base /= baseSerial.UpdatesPerSec
				metric = "speedup-vs-serial"
			}
			if cur < base*(1-tolerancePct/100) {
				failures = append(failures, fmt.Sprintf(
					"%s: %s %.2f vs baseline %.2f (-%.1f%%, tolerance %.0f%%)",
					cp.Label(), metric, cur, base, 100*(1-cur/base), tolerancePct))
			}
		}
		// Read throughput is gated exactly like update throughput:
		// normalized by the run's own serial reader rate when both
		// sides carry one, raw otherwise. The gate is one-sided (only
		// a drop below baseline fails), so a baseline generated on a
		// smaller machine is a safe floor for a bigger runner.
		if bp.ReadsPerSec > 0 && cp.ReadsPerSec > 0 && !(readNormalized && bp.Workers == 0) {
			cur, base := cp.ReadsPerSec, bp.ReadsPerSec
			metric := "reads/s"
			if readNormalized {
				cur /= curSerial.ReadsPerSec
				base /= baseSerial.ReadsPerSec
				metric = "read-speedup-vs-serial"
			}
			if cur < base*(1-tolerancePct/100) {
				failures = append(failures, fmt.Sprintf(
					"%s: %s %.2f vs baseline %.2f (-%.1f%%, tolerance %.0f%%)",
					cp.Label(), metric, cur, base, 100*(1-cur/base), tolerancePct))
			}
		}
	}
	// Allocation gate: the probes are attached identically to every
	// point, so compare them once, off the serial point (or the first
	// shared mode when no serial point exists).
	if len(baseline) > 0 {
		bp := baseline[0]
		if p, ok := find(baseline, 0); ok {
			bp = p
		}
		if cp, ok := find(current, bp.Workers); ok {
			checkAllocs := func(name string, cur, base float64) {
				if cur > base*(1+tolerancePct/100) && cur > base+0.5 {
					failures = append(failures, fmt.Sprintf(
						"%s: %.2f allocs/op vs baseline %.2f (tolerance %.0f%% + 0.5)",
						name, cur, base, tolerancePct))
				}
			}
			checkAllocs("candidate-snapshot", cp.SnapshotAllocsPerOp, bp.SnapshotAllocsPerOp)
			checkAllocs("commit-merge", cp.CommitMergeAllocsPerOp, bp.CommitMergeAllocsPerOp)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("experiments: performance regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// ParallelCSV renders the study as CSV, one row per point.
func ParallelCSV(points []ParallelPoint) string {
	var b strings.Builder
	b.WriteString("mode,workers,cpus,runs,aborts,wall_ms,upd_per_sec,reads_per_sec,wal_syncs,commit_batches,ack_p50_ms,ack_p99_ms,snapshot_allocs,commit_merge_allocs\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.1f,%.1f,%.3f,%.3f,%.2f,%.2f\n",
			p.Label(), p.Workers, max(p.Cpus, 1), p.Runs, p.Aborts, p.WallMillis,
			p.UpdatesPerSec, p.ReadsPerSec,
			p.WALSyncs, p.CommitBatches, p.AckP50Millis, p.AckP99Millis,
			p.SnapshotAllocsPerOp, p.CommitMergeAllocsPerOp)
	}
	return b.String()
}

// RenderParallel prints the study as an aligned table; durable studies
// additionally show the sync coalescing (wal syncs vs commit batches)
// and the commit-ack latency percentiles.
func RenderParallel(points []ParallelPoint) string {
	var b strings.Builder
	b.WriteString("parallel-runtime study (COARSE tracker, same seeded workload)\n")
	durable, reads := false, false
	for _, p := range points {
		if p.WALSyncs > 0 {
			durable = true
		}
		if p.Readers > 0 {
			reads = true
		}
	}
	fmt.Fprintf(&b, "%-20s%10s%12s%12s", "mode", "aborts", "wall(ms)", "upd/s")
	if reads {
		fmt.Fprintf(&b, "%12s", "reads/s")
	}
	if durable {
		fmt.Fprintf(&b, "%12s%10s%12s%12s", "wal syncs", "batches", "ack-p50(ms)", "ack-p99(ms)")
	}
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s%10.1f%12.1f%12.1f", p.Label(), p.Aborts, p.WallMillis, p.UpdatesPerSec)
		if reads {
			fmt.Fprintf(&b, "%12.1f", p.ReadsPerSec)
		}
		if durable {
			fmt.Fprintf(&b, "%12.1f%10.1f%12.3f%12.3f", p.WALSyncs, p.CommitBatches, p.AckP50Millis, p.AckP99Millis)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
