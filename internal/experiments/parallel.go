package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

// ModeLabel names an execution mode by its worker count: 0 is the
// serial reference execution (serial.Execute), anything positive the
// scheduler at that round width.
func ModeLabel(workers int) string {
	if workers == 0 {
		return "serial"
	}
	return fmt.Sprintf("workers=%d", workers)
}

// RunMode executes one workload under the study's execution
// convention: cfg.Workers == 0 selects the serial reference execution
// (serial.Execute with cfg.User, no concurrency control; the rest of
// cfg does not apply), any positive count runs cc.Scheduler with that
// round width. It returns the metrics together with the run's
// wall time (setup excluded). The serial reference cannot park an
// update, so Workers == 0 with an Inbox is an error, returned before
// the store is touched. The benches and examples share RunMode so the
// serial-vs-concurrent comparison stays on one convention.
func RunMode(st storage.Backend, set *tgd.Set, cfg cc.Config, ops []chase.Op) (cc.Metrics, time.Duration, error) {
	if cfg.Workers > 0 {
		if cfg.Trace == nil {
			cfg.Trace = studyTrace
		}
		start := time.Now()
		m, err := cc.NewScheduler(st, set, cfg).Run(ops)
		return m, time.Since(start), err
	}
	if cfg.Inbox != nil {
		return cc.Metrics{}, 0, fmt.Errorf("experiments: the serial reference (Workers 0) cannot park updates in an inbox")
	}
	start := time.Now()
	syncs := st.SyncCount()
	s, err := serial.Execute(st, set, ops, cfg.User)
	wall := time.Since(start)
	n := len(ops)
	return cc.Metrics{
		Submitted: n, Runs: n,
		Steps: s.Steps, Writes: s.Writes,
		FrontierRequests: s.FrontierRequests, FrontierOps: s.FrontierOps,
		CommitBatches: n, MaxCommitBatch: min(n, 1),
		WALSyncs: int(st.SyncCount() - syncs),
		WallTime: wall,
	}, wall, err
}

// ParallelPoint is one measurement of the round-width study.
type ParallelPoint struct {
	// Workers is the scheduler's round width; 0 denotes the serial
	// reference execution (serial.Execute, no concurrency control).
	Workers    int
	Runs       int
	Aborts     float64
	WallMillis float64
	// UpdatesPerSec is committed-update throughput: Submitted / wall.
	UpdatesPerSec float64
	// WALSyncs is the mean number of log fsyncs per run — zero for
	// in-memory studies; for durable studies (DataDir set) a run
	// waits for durability once, at its end, so one covering fsync
	// (plus one per segment rotation) lands all its commit batches.
	WALSyncs float64 `json:",omitempty"`
	// CommitBatches is the mean number of commit-frontier drains per
	// run, each one log append on a durable study.
	CommitBatches float64 `json:",omitempty"`
	// SnapshotAllocsPerOp and CommitMergeAllocsPerOp are steady-state
	// heap allocations of the two hot coordination steps (conflict-
	// candidate collection, commit-batch merge), measured once per
	// study and attached to every point. CheckRegression gates them
	// alongside throughput; both are expected to be zero.
	SnapshotAllocsPerOp    float64 `json:"SnapshotAllocsPerOp"`
	CommitMergeAllocsPerOp float64 `json:"CommitMergeAllocsPerOp"`
	// NumCPU and GoMaxProcs record the hardware the point actually ran
	// on — runtime.NumCPU and the effective GOMAXPROCS — so published
	// artifacts are attributable to a runner generation.
	NumCPU     int `json:",omitempty"`
	GoMaxProcs int `json:",omitempty"`
}

// Label names the point's execution mode.
func (p ParallelPoint) Label() string { return ModeLabel(p.Workers) }

// ParallelStudy compares the serial reference execution against the
// scheduler across a sweep of round widths on the same seeded
// workload. Each point reports mean wall time and throughput, and the
// committed final instance is serializable at every point (the
// property the cc tests assert).
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

// measurePoint runs one study point runs times and folds the means
// into p. The universe is shared across points; each run gets a fresh
// store (and, durable, a fresh WAL directory).
func measurePoint(u *workload.Universe, base workload.Config, p *ParallelPoint, runs int, dataDir string) error {
	p.NumCPU = runtime.NumCPU()
	p.GoMaxProcs = runtime.GOMAXPROCS(0)
	var updates float64
	for r := 0; r < runs; r++ {
		var st *storage.Store
		var mgr *wal.Manager
		var err error
		if dataDir == "" {
			st, err = u.NewStore()
		} else {
			dir := filepath.Join(dataDir, fmt.Sprintf("w%d-r%d", p.Workers, r))
			st, mgr, err = u.OpenDurableStore(dir, wal.Options{})
		}
		if err != nil {
			return err
		}
		cfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(uint64(base.Seed)*31 + uint64(r)),
			MaxAbortsPerUpdate: maxAbortsPerUpdate,
			Workers:            p.Workers,
		}
		ops := u.GenOpsSeeded(base.Seed*6151 + int64(r))
		m, elapsed, err := RunMode(st, u.Mappings, cfg, ops)
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
		if secs := elapsed.Seconds(); secs > 0 {
			updates += float64(m.Submitted) / secs
		}
	}
	n := float64(runs)
	p.Aborts /= n
	p.WallMillis /= n
	p.WALSyncs /= n
	p.CommitBatches /= n
	p.UpdatesPerSec = updates / n
	return nil
}

// MeasureHotPathAllocs measures the steady-state heap allocations per
// operation of the two hottest coordination steps, both kept
// allocation-free: conflict-candidate collection (candidate txns into
// a reusable scratch) and the commit-batch merge (per-writer log
// slices into the store's scratch buffer). The
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
	// A mode is a worker count.
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
	var failures []string
	for _, bp := range baseline {
		cp, ok := find(current, bp.Workers)
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
	b.WriteString("mode,workers,runs,aborts,wall_ms,upd_per_sec,wal_syncs,commit_batches,snapshot_allocs,commit_merge_allocs\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%.2f,%.2f,%.2f,%.1f,%.1f,%.2f,%.2f\n",
			p.Label(), p.Workers, p.Runs, p.Aborts, p.WallMillis,
			p.UpdatesPerSec,
			p.WALSyncs, p.CommitBatches,
			p.SnapshotAllocsPerOp, p.CommitMergeAllocsPerOp)
	}
	return b.String()
}

// RenderParallel prints the study as an aligned table; durable studies
// additionally show the sync coalescing (wal syncs vs commit batches).
func RenderParallel(points []ParallelPoint) string {
	var b strings.Builder
	b.WriteString("round-width study (COARSE tracker, same seeded workload)\n")
	durable := false
	for _, p := range points {
		if p.WALSyncs > 0 {
			durable = true
		}
	}
	fmt.Fprintf(&b, "%-20s%10s%12s%12s", "mode", "aborts", "wall(ms)", "upd/s")
	if durable {
		fmt.Fprintf(&b, "%12s%10s", "wal syncs", "batches")
	}
	b.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s%10.1f%12.1f%12.1f", p.Label(), p.Aborts, p.WallMillis, p.UpdatesPerSec)
		if durable {
			fmt.Fprintf(&b, "%12.1f%10.1f", p.WALSyncs, p.CommitBatches)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
