// Package chaostest builds randomized fault schedules for the
// durability chaos harness. A schedule is a slice of vfs.Rule ready
// for FaultFS.Script; the builders encode the invariants the harness
// asserts against:
//
//   - TransientSchedule produces only transient faults, and never more
//     of one operation class than the log's bounded retry can absorb —
//     a run under it must stay StateHealthy, lose no acked commit, and
//     recover byte-identically.
//   - NoSpaceSchedule produces a persistent ENOSPC on segment appends —
//     a run under it must degrade to read-only (never poison), keep
//     serving reads, and re-arm once the schedule is cleared.
//
// The package is a normal (non-test) package so the wal package's chaos
// tests can import it.
package chaostest

import (
	"math/rand"

	"youtopia/internal/vfs"
)

// MaxBurst is the largest number of faults a schedule arms per
// operation class. It must stay strictly below the log's retry budget
// (wal.Options.RetryAttempts, default 6): even if every fault of a
// class lands on consecutive attempts of one logical operation, the
// retry loop outlasts the burst and the log never degrades.
const MaxBurst = 5

// afterRange is the window of "let this many calls through first"
// offsets per operation class, roughly scaled to how often each class
// fires in a short workload (appends are frequent, renames are one per
// checkpoint).
var afterRange = map[vfs.Op]int{
	vfs.OpWrite:   300,
	vfs.OpSync:    60,
	vfs.OpSyncDir: 12,
	vfs.OpCreate:  8,
	vfs.OpRename:  6,
}

// TransientSchedule returns a randomized all-transient fault schedule
// over the write path: injected EIO bursts on appends, fsyncs,
// directory syncs, segment/checkpoint creation and checkpoint
// installs, plus the occasional torn write that persists a prefix of
// the frame before failing. intensity (>= 1) scales how many bursts
// each class gets; whatever the value, no class arms more than
// MaxBurst faults, so a correct log survives the whole schedule
// without leaving StateHealthy.
//
// Arm the schedule after the log is open (FaultFS.Script on a FaultFS
// that was clean during Open): the open-time repair path does not
// retry, by design — a fault while establishing the baseline is a
// failed open, not a degraded log.
func TransientSchedule(seed int64, intensity int) []vfs.Rule {
	if intensity < 1 {
		intensity = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var rules []vfs.Rule
	for _, op := range []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpSyncDir, vfs.OpCreate, vfs.OpRename} {
		budget := MaxBurst
		bursts := 1 + rng.Intn(intensity+1)
		for b := 0; b < bursts && budget > 0; b++ {
			count := 1 + rng.Intn(2)
			if count > budget {
				count = budget
			}
			budget -= count
			r := vfs.Rule{
				Op:    op,
				After: rng.Intn(afterRange[op]),
				Count: count,
			}
			// One write burst in three tears instead of failing clean:
			// a prefix of the frame reaches the file before the error,
			// exercising the truncate-the-tail repair.
			if op == vfs.OpWrite && rng.Intn(3) == 0 {
				r.Count = 1
				budget += count - 1
				r.Short = 1 + rng.Intn(16)
			}
			rules = append(rules, r)
		}
	}
	return rules
}

// NoSpaceSchedule returns a persistent disk-full schedule: every
// segment append after the first `after` fails with ENOSPC, forever.
// The log must degrade to read-only on it (ENOSPC is not transient —
// retrying cannot help until space is freed) and must not poison.
// Pair with FaultFS.SetFreeBytes(0) so the automatic space recheck
// stays parked until the harness restores space.
func NoSpaceSchedule(after int) []vfs.Rule {
	return []vfs.Rule{{
		Op:    vfs.OpWrite,
		Path:  "wal-",
		After: after,
		Err:   vfs.NoSpace(),
	}}
}
