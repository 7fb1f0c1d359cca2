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

// parkBackground stops the manager's background goroutines (the
// checkpointer and the health loop) so a test can drive the log by
// hand with no checkpoint covering a batch behind its back; Close
// still works afterwards (the shutdown is idempotent) and performs the
// drain itself.
func parkBackground(m *Manager) { m.stopBackground() }

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
	parkBackground(m)

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
	parkBackground(m)

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
	parkBackground(m)

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

// TestCloseRacingBackgroundCheckpoint: a background checkpoint that
// finds the log closed did nothing wrong, so Close of a healthy log
// returns nil. The hook holds the checkpoint until Close has marked
// the log closed, which makes the race deterministic.
func TestCloseRacingBackgroundCheckpoint(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testCkptStart = func() { once.Do(func() { close(entered); <-release }) }
	defer func() { testCkptStart = nil }()
	m, st, err := Open(t.TempDir(), testSchema(), Options{CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("v")))
	if err := st.CommitBatch([]int{1}); err != nil {
		t.Fatal(err)
	}
	<-entered // the commit woke the checkpointer, which is now held
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
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close of a healthy log = %v, want nil", err)
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

// TestTransientSyncRetryReleasesAcksOnce pins the transient-failure
// contract of the pipeline: a sync that fails transiently holds the
// ack waiters parked — it does not fail them — and the successful
// retry releases every waiter exactly once, with exactly one counted
// fsync and the log still healthy.
func TestTransientSyncRetryReleasesAcksOnce(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	// The first two fsyncs of the segment fail transiently; the third
	// attempt is the real one.
	ffs.Script(vfs.Rule{Op: vfs.OpSync, Path: "wal-", Count: 2})
	m, st, err := Open(dir, schema, Options{
		CheckpointBytes: -1,
		FS:              ffs,
		RetryBase:       time.Millisecond,
	})
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
	// through its retries, the others park behind it.
	const waiters = 4
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { results <- ack() }()
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("waiter %d failed: %v (transient retries must hold, not fail)", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ack waiter never released after the retried sync")
		}
	}
	// Exactly once: no duplicate release means no extra buffered
	// results beyond the one per waiter drained above.
	select {
	case err := <-results:
		t.Fatalf("extra ack release: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.Syncs(); got != 1 {
		t.Fatalf("Syncs = %d, want exactly 1 (failed attempts must not count)", got)
	}
	h := m.Health()
	if h.State != StateHealthy {
		t.Fatalf("state = %v after transient sync retries, want healthy", h.State)
	}
	if h.Retries < 2 {
		t.Fatalf("Retries = %d, want >= 2", h.Retries)
	}
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}
