package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// These tests drive the health machine (healthy → degraded →
// poisoned) through injected faults: an I/O failure must degrade to
// read-only without losing an acknowledged commit, and only
// unknowable-tail failures may poison.

func faultOpen(t *testing.T, dir string, ffs *vfs.FaultFS, opts Options) (*Manager, *storage.Store) {
	t.Helper()
	opts.FS = ffs
	m, st, err := Open(dir, testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

func TestTornAppendRestoresTail(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{})
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)

	// The torn write persists 5 bytes of the frame before failing;
	// they must be truncated back off, or the segment holds garbage
	// ahead of the next frame appended after Resume.
	ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Short: 5, Count: 1})
	mustInsert(t, st, 2, tup("C", c("torn")))
	if err := st.CommitBatch([]int{2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("torn-append commit error = %v, want ErrReadOnly", err)
	}
	st.Abort(2)
	if h := m.Health(); h.State != StateDegraded || h.NoSpace {
		t.Fatalf("health = %+v, want degraded without NoSpace", h)
	}

	if err := m.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	mustInsert(t, st, 3, tup("C", c("d")))
	mustCommitBatch(t, st, 3)
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, info, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if info.Repaired {
		t.Fatal("torn bytes survived the truncate repair")
	}
	if info.LastBatch != 2 {
		t.Fatalf("LastBatch = %d, want 2", info.LastBatch)
	}
	if got := st2.Dump(allSeeing); got != want || strings.Contains(got, "torn") {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

func TestNoSpaceDegradesAndResumes(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{})
	mustInsert(t, st, 1, tup("C", c("acked")))
	mustCommitBatch(t, st, 1)

	ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: vfs.NoSpace()})
	ffs.SetFreeBytes(0)
	mustInsert(t, st, 2, tup("C", c("lost")))
	err := st.CommitBatch([]int{2})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ENOSPC commit error = %v, want ErrReadOnly", err)
	}
	st.Abort(2)

	h := m.Health()
	if h.State != StateDegraded || !h.NoSpace {
		t.Fatalf("health = %+v, want degraded with NoSpace", h)
	}
	if !errors.Is(h.Err(), ErrReadOnly) {
		t.Fatalf("Health.Err() = %v, want ErrReadOnly", h.Err())
	}
	// Reads keep serving the acknowledged state.
	if got := st.Dump(allSeeing); !strings.Contains(got, "acked") {
		t.Fatalf("degraded read lost acked data: %q", got)
	}
	// New commits are rejected fast by the admission guard, before
	// any append is attempted.
	writes := ffs.OpCount(vfs.OpWrite)
	mustInsert(t, st, 3, tup("C", c("rejected")))
	if err := st.CommitBatch([]int{3}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded commit error = %v, want ErrReadOnly", err)
	}
	st.Abort(3)
	if ffs.OpCount(vfs.OpWrite) != writes {
		t.Fatal("degraded commit reached the filesystem; the guard should reject before any I/O")
	}

	// Space comes back: Resume re-arms and commits flow again.
	ffs.Clear()
	ffs.SetFreeBytes(-1)
	if err := m.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if h := m.Health(); h.State != StateHealthy {
		t.Fatalf("state = %v after Resume, want healthy", h.State)
	}
	mustInsert(t, st, 4, tup("C", c("after")))
	mustCommitBatch(t, st, 4)
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	got := st2.Dump(allSeeing)
	if got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if strings.Contains(got, "lost") || strings.Contains(got, "rejected") {
		t.Fatalf("rejected batch leaked into the durable state: %q", got)
	}
}

// TestNoSpaceAutoResumeOnSpaceReturn: an ENOSPC-degraded log re-checks
// itself when its health is read or a commit asks to be admitted,
// probing the free space at most once per recheckInterval, and resumes
// once the disk has drained — no operator Resume, no goroutine.
func TestNoSpaceAutoResumeOnSpaceReturn(t *testing.T) {
	defer func(d time.Duration) { recheckInterval = d }(recheckInterval)
	recheckInterval = time.Hour
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{})
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)

	ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: vfs.NoSpace()})
	ffs.SetFreeBytes(0)
	mustInsert(t, st, 2, tup("C", c("b")))
	if err := st.CommitBatch([]int{2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ENOSPC commit error = %v, want ErrReadOnly", err)
	}
	st.Abort(2)
	if h := m.Health(); h.State != StateDegraded || !h.NoSpace {
		t.Fatalf("health = %+v, want degraded with NoSpace", h)
	}

	// The disk drains, but the last probe (at the degrade) is too
	// recent for another.
	ffs.Clear()
	ffs.SetFreeBytes(-1)
	if h := m.Health(); h.State != StateDegraded {
		t.Fatalf("health = %+v within the recheck interval, want still degraded", h)
	}
	// Once the interval has passed, the next commit's admission check
	// probes, finds room, and re-arms the log before the commit runs.
	recheckInterval = 0
	mustInsert(t, st, 3, tup("C", c("d")))
	mustCommitBatch(t, st, 3)
	if h := m.Health(); h.State != StateHealthy {
		t.Fatalf("health = %+v after the re-armed commit, want healthy", h)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFailureRescuedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{})
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)

	// Every fsync of the segment fails from here on. The appended
	// batch can never be covered by a sync; the rescue checkpoint
	// must make it durable through the untainted checkpoint path and
	// the ack must resolve clean.
	ffs.Script(vfs.Rule{Op: vfs.OpSync, Path: "wal-"})
	mustInsert(t, st, 2, tup("C", c("b")))
	ack, err := st.CommitBatchAsync([]int{2})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ack == nil {
		t.Fatal("durable commit returned no ack")
	}
	if err := ack(); err != nil {
		t.Fatalf("ack = %v, want nil (batch rescued by checkpoint)", err)
	}
	h := m.Health()
	if h.State != StateDegraded {
		t.Fatalf("state = %v after rescue, want degraded", h.State)
	}
	if !strings.Contains(h.Reason, "rescued") {
		t.Fatalf("Reason = %q, want the rescue spelled out", h.Reason)
	}
	// After a failed fsync the segment's unsynced region is suspect
	// even if a later fsync would "succeed" (the kernel may have
	// dropped the dirty pages); the checkpoint covers it, so it must
	// have been dropped.
	if fileExists(vfs.OS, segPathUnderTest(m, 1)) {
		t.Fatal("suspect segment survived the rescue")
	}

	ffs.Clear()
	if err := m.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	mustInsert(t, st, 3, tup("C", c("d")))
	mustCommitBatch(t, st, 3)
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, info, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
	if info.LastBatch != 3 {
		t.Fatalf("LastBatch = %d, want 3", info.LastBatch)
	}
}

// segPathUnderTest names the segment that starts at batch first.
func segPathUnderTest(m *Manager, first int64) string {
	return m.dir + "/" + segName(first)
}

// TestSyncFailureWithFailedRescueDegrades: a covering sync fails and
// so does its rescue checkpoint's temp write. The stranded batch is
// left unacknowledged on the suspect segment and the log degrades, as
// after a failed rotation sync; it does not poison. Resume's checkpoint
// covers the batch and drops the segment, and a reopen holds every
// commit.
func TestSyncFailureWithFailedRescueDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{CheckpointBytes: -1})
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)

	ffs.Script(
		vfs.Rule{Op: vfs.OpSync, Path: "wal-", Count: 1},
		vfs.Rule{Op: vfs.OpWrite, Path: tmpCkptName, Count: 1},
	)
	mustInsert(t, st, 2, tup("C", c("stranded")))
	if err := st.CommitBatch([]int{2}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ack = %v, want ErrReadOnly (the batch is not durable)", err)
	}
	h := m.Health()
	if h.State != StateDegraded {
		t.Fatalf("state = %v after a failed rescue, want degraded", h.State)
	}
	if !strings.Contains(h.Reason, "rescue checkpoint failed") {
		t.Fatalf("Reason = %q, want the failed rescue spelled out", h.Reason)
	}
	if !fileExists(vfs.OS, segPathUnderTest(m, 1)) {
		t.Fatal("the suspect segment was dropped with no checkpoint covering it")
	}

	ffs.Clear()
	if err := m.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if fileExists(vfs.OS, segPathUnderTest(m, 1)) {
		t.Fatal("suspect segment survived Resume's covering checkpoint")
	}
	mustInsert(t, st, 3, tup("C", c("d")))
	mustCommitBatch(t, st, 3)
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

func TestControlAppendBouncesDuringRescue(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, _ := faultOpen(t, dir, ffs, Options{})
	defer m.Close()

	op := chase.Insert(tup("C", c("x")))
	m.mu.Lock()
	m.rescuing = true
	m.mu.Unlock()
	if _, err := m.AppendPark(op); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("park during rescue = %v, want ErrReadOnly", err)
	}
	m.mu.Lock()
	m.rescuing = false
	m.mu.Unlock()
	if _, err := m.AppendPark(op); err != nil {
		t.Fatalf("park after the rescue window: %v", err)
	}
}

func TestRetireSkipsFailedRemove(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{SegmentBytes: 1, CheckpointBytes: -1})
	for i := 1; i <= 3; i++ {
		mustInsert(t, st, i, tup("C", c(fmt.Sprintf("v%d", i))))
		mustCommitBatch(t, st, i)
	}

	// Retirement is garbage collection: a failed unlink must not fail
	// the checkpoint, only leave the orphan for the next pass.
	ffs.Script(vfs.Rule{Op: vfs.OpRemove, Err: errors.New("EBUSY")})
	skipsBefore := obsRetireSkips.Value()
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint failed on a skipped retirement: %v", err)
	}
	if obsRetireSkips.Value() <= skipsBefore {
		t.Fatal("skipped removals were not counted")
	}
	if !fileExists(vfs.OS, segPathUnderTest(m, 1)) {
		t.Fatal("segment vanished although its removal was faulted")
	}
	if h := m.Health(); h.State != StateHealthy {
		t.Fatalf("state = %v after skipped retirement, want healthy", h.State)
	}

	// The next checkpoint rescans and collects the orphan.
	ffs.Clear()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fileExists(vfs.OS, segPathUnderTest(m, 1)) {
		t.Fatal("orphan segment survived the retry checkpoint")
	}
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

func TestRecoveryToleratesCoveredSegmentGap(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st := faultOpen(t, dir, ffs, Options{SegmentBytes: 1, CheckpointBytes: -1})
	for i := 1; i <= 4; i++ {
		mustInsert(t, st, i, tup("C", c(fmt.Sprintf("v%d", i))))
		mustCommitBatch(t, st, i)
	}
	// Checkpoint at batch 4 with retirement fully faulted: segments
	// 1..3 stay behind as covered orphans.
	ffs.Script(vfs.Rule{Op: vfs.OpRemove, Err: errors.New("EBUSY")})
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ffs.Clear()
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A covered orphan disappearing (a retirement that half-landed
	// before a crash) leaves a numbering gap wholly below the
	// checkpoint; recovery must shrug it off.
	if err := vfs.OS.Remove(segPathUnderTest(m, 2)); err != nil {
		t.Fatal(err)
	}
	st2, info, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointBatch != 4 {
		t.Fatalf("CheckpointBatch = %d, want 4", info.CheckpointBatch)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

func TestBitRotTruncatesAtCorruption(t *testing.T) {
	dir := t.TempDir()
	m, st, err := Open(dir, testSchema(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"a", "b", "d"} {
		mustInsert(t, st, i+1, tup("C", c(v)))
		mustCommitBatch(t, st, i+1)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit near the end of the segment — inside the last
	// batch's frame — on the recovery read. The CRC must catch it and
	// cut the log there: the prefix survives, the corrupt batch does
	// not, and nothing is silently wrong.
	seg := dir + "/" + segName(1)
	fi, err := vfs.OS.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	ffs.Script(vfs.Rule{
		Op:      vfs.OpRead,
		Path:    "wal-",
		FlipBit: int(fi.Size()-5)*8 + 3,
		Count:   1,
	})
	m2, st2, err := Open(dir, testSchema(), Options{FS: ffs, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	info := m2.Recovery()
	if !info.Repaired {
		t.Fatal("bit rot in the tail was not flagged as a repair")
	}
	if info.LastBatch != 2 {
		t.Fatalf("LastBatch = %d, want 2 (corrupt batch 3 cut off)", info.LastBatch)
	}
	got := st2.Dump(allSeeing)
	if !strings.Contains(got, "a") || !strings.Contains(got, "b") {
		t.Fatalf("recovered %q lost the intact prefix", got)
	}
	if strings.Contains(got, "d") {
		t.Fatalf("recovered %q contains the corrupted batch", got)
	}
}
