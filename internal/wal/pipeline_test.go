package wal

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// These tests pin the split commit: appends happen under the commit
// lock, fsyncs happen behind it in the goroutine that waits for an
// ack, acknowledgment waits for the covering sync, and batches
// appended before a wait coalesce into fewer fsyncs than batches.

// TestSyncPendingCoalescesAcks drives the log deterministically: three
// batches appended while nobody waits on an ack, which syncs nothing,
// then one manual covering fsync — which must resolve all three acks
// at the cost of a single sync, the coalescing that makes
// Syncs() <= Batches().
func TestSyncPendingCoalescesAcks(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var acks []storage.CommitAck
	for i := 1; i <= 3; i++ {
		mustInsert(t, st, i, tup("C", c(fmt.Sprintf("v%d", i))))
		ack, err := st.CommitBatchAsync([]int{i})
		if err != nil {
			t.Fatal(err)
		}
		if ack == nil {
			t.Fatal("durable commit returned no ack")
		}
		acks = append(acks, ack)
	}
	if got := m.Syncs(); got != 0 {
		t.Fatalf("Syncs = %d before any covering sync", got)
	}
	if got := m.SyncedBatches(); got != 0 {
		t.Fatalf("SyncedBatches = %d before any ack was awaited", got)
	}
	m.mu.Lock()
	m.syncPending()
	m.mu.Unlock()
	if got := m.Syncs(); got != 1 {
		t.Fatalf("Syncs = %d, want 1 covering fsync for 3 batches", got)
	}
	if got := m.SyncedBatches(); got != 3 {
		t.Fatalf("SyncedBatches = %d, want 3", got)
	}
	for i, ack := range acks {
		if err := ack(); err != nil {
			t.Fatalf("ack %d: %v", i+1, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Syncs(); got != 1 {
		t.Fatalf("Syncs = %d after close, want 1 (nothing left to drain)", got)
	}

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 3 {
		t.Fatalf("LastBatch = %d, want 3", info.LastBatch)
	}
	if got, want := st2.Dump(allSeeing), st.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointAcknowledgesPendingBatches: a durable checkpoint
// reproduces the committed instance through its batch index, so it
// must resolve the acks of appended-but-unsynced batches without a
// segment fsync — the checkpoint is their durable copy.
func TestCheckpointAcknowledgesPendingBatches(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("ckpt-covered")))
	ack, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ack(); err != nil {
		t.Fatalf("ack after covering checkpoint: %v", err)
	}
	if got := m.Syncs(); got != 0 {
		t.Fatalf("Syncs = %d, want 0 (the checkpoint covered the batch)", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 1 {
		t.Fatalf("LastBatch = %d, want 1", info.LastBatch)
	}
	if got, want := st2.Dump(allSeeing), st.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCloseDrainsPipeline: Close must issue the final covering sync
// for appended-but-unsynced batches and resolve their acks before
// returning — "repository Close drains the pipeline".
func TestCloseDrainsPipeline(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("drained")))
	ack, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody waits on the ack, so Close performs the covering sync
	// itself; the ack then finds its batch covered.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ack(); err != nil {
		t.Fatalf("ack after close drain: %v", err)
	}
	if got := m.Syncs(); got != 1 {
		t.Fatalf("Syncs = %d, want 1 (the close drain)", got)
	}

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 1 {
		t.Fatalf("LastBatch = %d, want 1", info.LastBatch)
	}
	if got, want := st2.Dump(allSeeing), st.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// holdSyncs installs testSyncHold for the test: the first covering
// sync to reach its fsync closes the returned inSync channel and waits
// until the test closes release. Later syncs pass straight through.
func holdSyncs(t *testing.T) (inSync, release chan struct{}) {
	inSync, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	testSyncHold = func() { once.Do(func() { close(inSync); <-release }) }
	t.Cleanup(func() { testSyncHold = nil })
	return inSync, release
}

// TestWaitersElectOneCoveringSync pins the group commit: while one
// waiter leads a covering sync, the waiters of batches appended behind
// it park, and once it lands exactly one of them leads the next sync,
// which covers all of their batches — two fsyncs for five batches,
// however the waiters interleave.
func TestWaitersElectOneCoveringSync(t *testing.T) {
	inSync, release := holdSyncs(t)
	m, st, err := Open(t.TempDir(), testSchema(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	commit := func(i int) storage.CommitAck {
		mustInsert(t, st, i, tup("C", c(fmt.Sprintf("v%d", i))))
		ack, err := st.CommitBatchAsync([]int{i})
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}
	results := make(chan error, 5)
	ack1 := commit(1)
	go func() { results <- ack1() }()
	<-inSync // the first waiter leads and holds its fsync over batch 1
	for i := 2; i <= 5; i++ {
		ack := commit(i)
		go func() { results <- ack() }()
	}
	close(release)
	for i := 0; i < 5; i++ {
		if err := <-results; err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	if got := m.Syncs(); got != 2 {
		t.Fatalf("Syncs = %d, want 2 (the held leader's, then one covering batches 2..5)", got)
	}
	if got := m.SyncedBatches(); got != 5 {
		t.Fatalf("SyncedBatches = %d, want 5", got)
	}
}

// TestPoisonWakesParkedAckWaiters regresses a deadlock: a waiter parked
// behind another waiter's covering sync must be woken with an error
// when a LATER batch's append poisons the log — without the wake, a
// scheduler Run or an Apply would block forever on a covering sync
// that can never come. The leader's fsync is held throughout, so the
// poison is the only way the parked waiter's wait can end.
func TestPoisonWakesParkedAckWaiters(t *testing.T) {
	inSync, release := holdSyncs(t)
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	m, st, err := Open(t.TempDir(), testSchema(), Options{CheckpointBytes: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	mustInsert(t, st, 1, tup("C", c("led")))
	ack1, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() { leader <- ack1() }()
	<-inSync

	mustInsert(t, st, 2, tup("C", c("parked")))
	ack2, err := st.CommitBatchAsync([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- ack2() }()

	// Batch 3's frame write fails and so does the truncate that would
	// cut its torn bytes back off: the tail is unknowable, which
	// poisons the log.
	ffs.Script(
		vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: errors.New("yanked")},
		vfs.Rule{Op: vfs.OpTruncate, Path: "wal-", Err: errors.New("yanked")},
	)
	mustInsert(t, st, 3, tup("C", c("fails")))
	if err := st.CommitBatch([]int{3}); err == nil {
		t.Fatal("commit over a dead segment succeeded")
	}
	if h := m.Health(); h.State != StatePoisoned {
		t.Fatalf("state = %v after an unrestorable tail, want poisoned", h.State)
	}

	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked ack resolved without an error on a poisoned log")
		}
		if !strings.Contains(err.Error(), "not durable") {
			t.Fatalf("parked ack error = %v, want a not-durable report", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked ack waiter never woken by the poison")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("the leader's fsync covered batch 1, yet its ack failed: %v", err)
	}
}

// TestRotationWaitBouncesDuringRescue regresses a deadlock: a commit
// append that must rotate waits out the covering sync in flight while
// it holds the store's commit lock. When that sync fails, its rescue
// checkpoint needs the store's lock for its cut, so the parked append
// must be woken and bounce with ErrReadOnly rather than wait on.
func TestRotationWaitBouncesDuringRescue(t *testing.T) {
	inSync, release := holdSyncs(t)
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	// One-byte segments: every append past the first rotates.
	m, st, err := Open(t.TempDir(), testSchema(), Options{CheckpointBytes: -1, SegmentBytes: 1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mustInsert(t, st, 1, tup("C", c("led")))
	ack1, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() { leader <- ack1() }()
	<-inSync
	ffs.Script(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Count: 1}) // the held sync fails

	mustInsert(t, st, 2, tup("C", c("rotates")))
	appended := make(chan error, 1)
	go func() { appended <- st.CommitBatch([]int{2}) }()
	for !goroutineIn("wal.(*Manager).ensureSegmentLocked") {
		runtime.Gosched() // until the append parks behind the held sync
	}
	close(release)
	select {
	case err := <-appended:
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("append parked behind a failed sync = %v, want ErrReadOnly", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked append and the rescue checkpoint deadlocked")
	}
	st.Abort(2)
	if err := <-leader; err != nil {
		t.Fatalf("the rescue checkpoint covers batch 1, yet its ack failed: %v", err)
	}
	if h := m.Health(); h.State != StateDegraded {
		t.Fatalf("state = %v after the rescue, want degraded", h.State)
	}
}

// goroutineIn reports whether some goroutine's stack holds fn.
func goroutineIn(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestCloseRacingAckLeaderCheckpoint: Close waits out the automatic
// checkpoint an ack is running, so none outlives it, and Close of a
// healthy log returns nil. The hook holds the checkpoint past its cut
// until Close has marked the log closed, which makes the race
// deterministic.
func TestCloseRacingAckLeaderCheckpoint(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testCkptSerialize = func() { once.Do(func() { close(entered); <-release }) }
	defer func() { testCkptSerialize = nil }()
	m, st, err := Open(t.TempDir(), testSchema(), Options{CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("v")))
	acked := make(chan error, 1)
	go func() { acked <- st.CommitBatch([]int{1}) }()
	<-entered // the ack synced batch 1 and runs the checkpoint, now held
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	for {
		m.mu.Lock()
		isClosed := m.closed
		m.mu.Unlock()
		if isClosed {
			break
		}
		runtime.Gosched()
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while an ack's checkpoint was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close of a healthy log = %v, want nil", err)
	}
	if got := m.LastCheckpoint(); got != 1 {
		t.Fatalf("LastCheckpoint = %d once Close returned, want 1 (the held checkpoint landed)", got)
	}
	if err := <-acked; err != nil {
		t.Fatalf("ack: %v", err)
	}
}

// TestAckLeaderCheckpointsPastThreshold: the log starts no checkpoint
// goroutine, so the commit whose append carries the log past
// CheckpointBytes takes the checkpoint in its ack and returns with it
// installed at its own batch; under SyncNever that ack is the only one
// handed out. A failing automatic checkpoint never fails the ack and
// leaves the log healthy; Close reports it.
func TestAckLeaderCheckpointsPastThreshold(t *testing.T) {
	const threshold = 256
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, 1)
			var m *Manager
			var crossing int64 // the last batch whose append reached the threshold
			m, st, err := Open(dir, testSchema(), Options{
				Sync: policy, CheckpointBytes: threshold, FS: ffs,
				// Observers run under m.mu, after the append is counted.
				Observer: func(batch int64, _ []int, _ []storage.WriteRec) {
					if m.sinceCkpt >= threshold {
						crossing = batch
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			commit := func(i int) {
				t.Helper()
				mustInsert(t, st, i, tup("C", c(fmt.Sprintf("v%03d", i))))
				ack, err := st.CommitBatchAsync([]int{i})
				if err != nil {
					t.Fatal(err)
				}
				if policy == SyncNever && (ack != nil) != (crossing == int64(i)) {
					t.Fatalf("batch %d: ack handed out %v, crossing at %d", i, ack != nil, crossing)
				}
				if ack != nil {
					if err := ack(); err != nil {
						t.Fatalf("ack of batch %d: %v", i, err)
					}
				}
			}
			checkpoints := 0
			for i := 1; i <= 40; i++ {
				prev := m.LastCheckpoint()
				commit(i)
				switch got := m.LastCheckpoint(); {
				case crossing == int64(i):
					if got != int64(i) {
						t.Fatalf("batch %d crossed the threshold; LastCheckpoint = %d on its return", i, got)
					}
					checkpoints++
				case got != prev:
					t.Fatalf("batch %d crossed nothing, yet LastCheckpoint moved %d -> %d", i, prev, got)
				}
			}
			if checkpoints < 2 {
				t.Fatalf("%d automatic checkpoints in 40 batches, want at least 2", checkpoints)
			}

			ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: tmpCkptName})
			last := m.LastCheckpoint()
			for i := 41; crossing < 41; i++ {
				commit(i) // fails the test on an ack error
			}
			if got := m.LastCheckpoint(); got != last {
				t.Fatalf("LastCheckpoint = %d past a failing checkpoint write, want %d", got, last)
			}
			if h := m.Health(); h.State != StateHealthy {
				t.Fatalf("health = %+v after a failed automatic checkpoint, want healthy", h)
			}
			want := st.Dump(allSeeing)
			if err := m.Close(); err == nil || !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("Close = %v, want the automatic checkpoint's injected fault", err)
			}
			st2, _, err := Recover(dir, testSchema())
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Dump(allSeeing); got != want {
				t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestSyncNeverNeedsNoAck: under SyncNever the append is all the
// durability asked for — the commit returns no ack and no fsyncs are
// ever counted.
func TestSyncNeverNeedsNoAck(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("lazy")))
	ack, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ack != nil {
		t.Fatal("SyncNever commit returned an ack")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Syncs(); got != 0 {
		t.Fatalf("Syncs = %d under SyncNever", got)
	}
	st2, _, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st2.Dump(allSeeing), st.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailedSyncIsRescuedNotRetried is the fsyncgate test: after a
// failed fsync the kernel may have dropped the bytes it failed to
// write, and FaultFS drops them, so a later fsync that succeeds would
// ack bytes that are gone. The failed covering sync must instead be
// rescued by a checkpoint: every waiter is released once, acked by the
// rescue, no fsync is counted, the log degrades, and recovery yields
// exactly the acked instance.
func TestFailedSyncIsRescuedNotRetried(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	// The first two fsyncs of the segment fail; a retry would find the
	// third one succeeding over a file the failures emptied.
	ffs.Script(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Count: 2})
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}

	mustInsert(t, st, 1, tup("C", c("held")))
	ack, err := st.CommitBatchAsync([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ack == nil {
		t.Fatal("durable commit returned no ack")
	}
	// Several waiters share the ticket: one leads the covering sync
	// and its rescue, the others park behind it.
	const waiters = 4
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { results <- ack() }()
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("waiter %d failed: %v (the rescue checkpoint must ack the batch)", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ack waiter never released after the failed sync")
		}
	}
	// Exactly once: no duplicate release means no extra buffered
	// results beyond the one per waiter drained above.
	select {
	case err := <-results:
		t.Fatalf("extra ack release: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	want := st.Dump(allSeeing)
	syncs, h := m.Syncs(), m.Health()
	m.Close()
	st2, _, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("acked %q, recovered %q", want, got)
	}
	if syncs != 0 {
		t.Fatalf("Syncs = %d, want 0 (a failed sync acks nothing)", syncs)
	}
	if h.State != StateDegraded {
		t.Fatalf("state = %v after the rescue, want degraded", h.State)
	}
}
