// Package chaostest builds randomized fault schedules for the
// durability chaos harness. A schedule is a slice of vfs.Rule ready
// for FaultFS.Script; the builders encode the invariants the harness
// asserts against:
//
//   - FaultSchedule produces plain EIO faults and torn writes on the
//     log's segment files. The first one that fires degrades the log to
//     read-only (a failed sync after its rescue checkpoint); the log
//     never poisons, every acked commit survives, and Resume re-arms it.
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

// afterRange is the window of "let this many calls through first"
// offsets per operation class, scaled to the chaos workload (a run of
// 20 updates makes 6–12 writes and 2 syncs): at intensity 2 nearly
// every schedule fires, and each outcome — a failed append, a rescued
// sync, a failed segment creation — shows in the 100-seed battery.
var afterRange = map[vfs.Op]int{
	vfs.OpWrite:  16,
	vfs.OpSync:   2,
	vfs.OpCreate: 6,
}

// FaultSchedule returns a randomized schedule of injected EIO faults on
// segment appends, segment fsyncs and segment creation, plus the
// occasional torn write that persists a prefix of the frame before
// failing. intensity (>= 1) scales how many faults each class gets.
//
// Only segment files fault. A checkpoint fault fails just that
// checkpoint, but one that meets the rescue checkpoint of a failed sync
// poisons the log; no truncate fault is armed either, so no schedule
// can poison.
//
// Arm the schedule after the log is open (FaultFS.Script on a FaultFS
// that was clean during Open): a fault while establishing the baseline
// is a failed open, not a degraded log.
func FaultSchedule(seed int64, intensity int) []vfs.Rule {
	if intensity < 1 {
		intensity = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var rules []vfs.Rule
	for _, op := range []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpCreate} {
		for b := 1 + rng.Intn(intensity+1); b > 0; b-- {
			r := vfs.Rule{Op: op, Path: "wal-", After: rng.Intn(afterRange[op]), Count: 1}
			// One write fault in three tears instead of failing clean:
			// a prefix of the frame reaches the file before the error,
			// exercising the truncate-the-tail repair.
			if op == vfs.OpWrite && rng.Intn(3) == 0 {
				r.Short = 1 + rng.Intn(16)
			}
			rules = append(rules, r)
		}
	}
	return rules
}

// NoSpaceSchedule returns a persistent disk-full schedule: every
// segment append after the first `after` fails with ENOSPC, forever.
// The log must degrade to read-only on it and must not poison. Pair
// with FaultFS.SetFreeBytes(0) so the free-space probe a degraded log
// makes when its health is read finds no room, and the log stays
// degraded until the harness restores space.
func NoSpaceSchedule(after int) []vfs.Rule {
	return []vfs.Rule{{
		Op:    vfs.OpWrite,
		Path:  "wal-",
		After: after,
		Err:   vfs.NoSpace(),
	}}
}
