// The chaos harness of the durability stack: the duplicate-heavy
// parallel workload runs under randomized fault schedules built by
// vfs/chaostest, and four invariants are asserted across every
// schedule — (1) the run fails, if at all, with ErrReadOnly and the
// log never poisons, (2) Resume re-arms the log once the faults clear,
// (3) recovery yields exactly the committed instance, so every
// acknowledged commit survives and every faulted batch commits fully
// or aborts fully, (4) no goroutine runs the log's code once the
// workload has returned, before Close or after it: the log starts
// none. CHAOS_SEEDS scales the battery (CI runs 100).
package wal_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
	"youtopia/internal/vfs/chaostest"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

// chaosSeeds reads the battery size from CHAOS_SEEDS (default 12
// locally; CI exports 100).
func chaosSeeds(t *testing.T) int {
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		return n
	}
	return 12
}

func chaosUniverse(t *testing.T) *workload.Universe {
	t.Helper()
	u, err := workload.Build(workload.Config{
		Relations:       10,
		MinArity:        1,
		MaxArity:        3,
		Constants:       8,
		Mappings:        12,
		MaxAtomsPerSide: 2,
		InitialTuples:   80,
		Updates:         20,
		InsertPct:       80,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestChaosDurableWorkload(t *testing.T) {
	u := chaosUniverse(t)
	for i := 0; i < chaosSeeds(t); i++ {
		seed := int64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join(t.TempDir(), "wal")
			ffs := vfs.NewFaultFS(vfs.OS, seed)
			st, mgr, err := u.OpenDurableStore(dir, wal.Options{
				FS:              ffs,
				SegmentBytes:    1 << 14,
				CheckpointBytes: 1 << 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Arm the schedule only after the open: a fault during the
			// open-time repair is a failed open.
			ffs.Script(chaostest.FaultSchedule(seed*7919+13, 2)...)

			sched := cc.NewScheduler(st, u.Mappings, cc.Config{
				Workers:            4,
				Tracker:            cc.Coarse{},
				User:               simuser.New(uint64(seed) + 1),
				MaxAbortsPerUpdate: 10000,
			})
			if _, err := sched.Run(u.GenOpsSeeded(seed + 100)); err != nil && !errors.Is(err, wal.ErrReadOnly) {
				t.Fatalf("run error = %v, want nil or ErrReadOnly in its chain", err)
			}
			if h := mgr.Health(); h.State == wal.StatePoisoned {
				t.Fatalf("a schedule without truncate faults poisoned the log: %s", h.Reason)
			}
			checkNoManagerGoroutines(t, mgr, "run the open log")
			resumeCommitRecover(t, u, dir, ffs, st, mgr)
			checkNoManagerGoroutines(t, mgr, "are left after Close")
		})
	}
}

// TestChaosNoSpaceWorkload runs the workload into a disk that is full
// from the workload's first log append on: the log must degrade (not
// poison), epoch reads must keep serving the acked state, and Resume
// after space returns must take commits again. The initial load is
// durable before the schedule is installed, and the schedule lets no
// append through: group commit can finish the whole workload in fewer
// appends than an allowance of three, which made "the run failed"
// depend on how commits happened to batch (1 run in 100).
func TestChaosNoSpaceWorkload(t *testing.T) {
	u := chaosUniverse(t)
	dir := filepath.Join(t.TempDir(), "wal")
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	st, mgr, err := u.OpenDurableStore(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Script(chaostest.NoSpaceSchedule(0)...)
	ffs.SetFreeBytes(0)

	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Workers:            4,
		Tracker:            cc.Coarse{},
		User:               simuser.New(3),
		MaxAbortsPerUpdate: 10000,
	})
	_, runErr := sched.Run(u.GenOpsSeeded(17))
	if runErr == nil {
		t.Fatal("workload ran to completion on a full disk")
	}
	if !errors.Is(runErr, wal.ErrReadOnly) {
		t.Fatalf("run error = %v, want ErrReadOnly in its chain", runErr)
	}
	h := mgr.Health()
	if h.State != wal.StateDegraded || !h.NoSpace {
		t.Fatalf("health = %+v, want degraded with NoSpace", h)
	}
	// Committed-state reads keep serving while the log is read-only.
	if facts := st.EpochSnap().VisibleFacts(); len(facts) == 0 {
		t.Fatal("degraded epoch snapshot serves nothing")
	}
	resumeCommitRecover(t, u, dir, ffs, st, mgr)
}

// resumeCommitRecover clears the fault schedule, re-arms the log with
// Resume (a no-op on a healthy log), commits a fresh tuple, closes the
// log, and checks that recovery yields the committed instance through
// the last batch. The comparison is on the committed instance, not a
// priority dump: a run aborted by a degrade leaves uncommitted writer
// logs behind.
func resumeCommitRecover(t *testing.T, u *workload.Universe, dir string, ffs *vfs.FaultFS, st *storage.Store, mgr *wal.Manager) {
	t.Helper()
	ffs.Clear()
	ffs.SetFreeBytes(-1)
	if err := mgr.Resume(); err != nil {
		t.Fatalf("Resume after the faults cleared: %v", err)
	}
	fresh := model.Tuple{Rel: u.Initial[0].Rel, Vals: make([]model.Value, len(u.Initial[0].Vals))}
	for i := range fresh.Vals {
		fresh.Vals[i] = model.Const("resumed")
	}
	wtr := 1 << 20 // far above any scheduler writer number
	if _, _, _, err := st.Insert(wtr, fresh); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitBatch([]int{wtr}); err != nil {
		t.Fatalf("commit after Resume: %v", err)
	}
	want, total := committedDump(st), mgr.Batches()
	if err := mgr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2, info, err := wal.Recover(dir, u.Schema)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if info.LastBatch != total {
		t.Fatalf("recovered to batch %d, want %d", info.LastBatch, total)
	}
	got := committedDump(st2)
	if got != want {
		t.Fatalf("recovered instance differs from the committed one:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, fresh.String()) {
		t.Fatalf("the commit after Resume is not durable: %s missing", fresh)
	}
	for _, s := range []*storage.Store{st, st2} {
		if err := s.AuditIndexes(); err != nil {
			t.Fatal(err)
		}
	}
}

// managerGoroutines counts the goroutines running m's methods, read off
// every goroutine's stack: runtime.NumGoroutine would count the logs of
// the battery's other seeds too, which run in parallel.
func managerGoroutines(m *wal.Manager) int {
	ours := regexp.MustCompile(fmt.Sprintf(`youtopia/internal/wal\.\(\*Manager\)\.\w+\(%p[,)]`, m))
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if ours.MatchString(g) {
			count++
		}
	}
	return count
}

// checkNoManagerGoroutines fails t if any goroutine is running m's
// code: the log starts none, and every call into it has returned.
func checkNoManagerGoroutines(t *testing.T, m *wal.Manager, what string) {
	t.Helper()
	if n := managerGoroutines(m); n != 0 {
		t.Fatalf("%d goroutines %s", n, what)
	}
}

// committedDump renders a store's committed instance (its serialized
// committed cut) as sorted text, ignoring uncommitted writer logs.
func committedDump(st *storage.Store) string {
	tuples, _ := st.Epoch().Serialize()
	var lines []string
	for _, ct := range tuples {
		if ct.Deleted {
			continue
		}
		lines = append(lines, model.Tuple{Rel: ct.Rel, Vals: ct.Vals}.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// FuzzFaultSchedule throws arbitrary schedules — EIO, hard errors,
// torn writes, disk-full — at a log and asserts the two invariants no
// schedule may break: an acknowledged batch survives recovery, and
// every batch is all-or-nothing.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(42), uint8(5), true)
	f.Add(int64(7), uint8(1), false)
	f.Add(int64(1009), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, intensity uint8, noSpace bool) {
		rng := rand.New(rand.NewSource(seed))
		schema := model.NewSchema()
		schema.MustAddRelation("R", "k", "v")
		dir := filepath.Join(t.TempDir(), "wal")
		ffs := vfs.NewFaultFS(vfs.OS, seed)
		m, st, err := wal.Open(dir, schema, wal.Options{
			FS:              ffs,
			CheckpointBytes: -1,
			SegmentBytes:    1 << 12,
		})
		if err != nil {
			// Open on a fresh dir failed under no faults: a real bug.
			t.Fatalf("open: %v", err)
		}

		faultOps := []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpSyncDir, vfs.OpCreate, vfs.OpRename}
		var rules []vfs.Rule
		for i := 0; i < 1+int(intensity)%8; i++ {
			r := vfs.Rule{
				Op:    faultOps[rng.Intn(len(faultOps))],
				After: rng.Intn(40),
				Count: rng.Intn(4), // 0 = fires forever
			}
			switch rng.Intn(4) {
			case 0:
				r.Err = errors.New("injected hard failure")
			case 1:
				if r.Op == vfs.OpWrite {
					r.Short = 1 + rng.Intn(8)
				}
			}
			rules = append(rules, r)
		}
		if noSpace {
			rules = append(rules, vfs.Rule{
				Op:    vfs.OpWrite,
				Path:  "wal-",
				After: rng.Intn(30),
				Err:   vfs.NoSpace(),
			})
		}
		ffs.Script(rules...)

		type pair struct{ a, b string }
		var acked, attempted []pair
		for i := 1; i <= 30; i++ {
			p := pair{fmt.Sprintf("a%03d", i), fmt.Sprintf("b%03d", i)}
			_, _, _, err1 := st.Insert(i, model.NewTuple("R", model.Const(fmt.Sprintf("x%03d", i)), model.Const(p.a)))
			_, _, _, err2 := st.Insert(i, model.NewTuple("R", model.Const(fmt.Sprintf("y%03d", i)), model.Const(p.b)))
			if err1 != nil || err2 != nil {
				st.Abort(i)
				continue
			}
			ack, err := st.CommitBatchAsync([]int{i})
			if err != nil {
				// Vetoed: fully aborted, must not surface anywhere.
				st.Abort(i)
				continue
			}
			attempted = append(attempted, p)
			if ack == nil || ack() == nil {
				acked = append(acked, p)
			}
			// On ack error the batch is committed in memory with
			// unknown durability: recovery may or may not include it,
			// but it stays in `attempted` — atomicity still holds.
		}

		ffs.Clear()
		ffs.SetFreeBytes(-1)
		checkNoManagerGoroutines(t, m, "run the open log")
		_ = m.Close() // a degraded/poisoned close may report the failure; recovery below is the oracle
		checkNoManagerGoroutines(t, m, "are left after Close")

		st2, _, err := wal.Recover(dir, schema)
		if err != nil {
			t.Fatalf("recovery after fault schedule: %v", err)
		}
		got := st2.Dump(allSeeing)
		for _, p := range acked {
			if !strings.Contains(got, p.a) || !strings.Contains(got, p.b) {
				t.Fatalf("acked batch (%s,%s) lost after recovery:\n%s", p.a, p.b, got)
			}
		}
		for _, p := range attempted {
			if strings.Contains(got, p.a) != strings.Contains(got, p.b) {
				t.Fatalf("torn batch: recovery holds exactly one of (%s,%s):\n%s", p.a, p.b, got)
			}
		}
	})
}
