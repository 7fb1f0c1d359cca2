package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCheckpointDoesNotStallCommits pins the wait-free checkpoint
// contract: a checkpoint held mid-serialization (after it paired its
// epoch with a batch index, while it renders the instance) must not
// block a concurrent durable commit — append, sync, and ack all
// complete while the checkpointer is frozen. The old implementation
// held the store's read locks across serialization, which made this
// exact schedule deadlock.
func TestCheckpointDoesNotStallCommits(t *testing.T) {
	dir := t.TempDir()
	m, st, err := Open(dir, testSchema(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	mustInsert(t, st, 1, tup("C", c("before")))
	if err := st.CommitBatch([]int{1}); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	testCkptSerialize = func() {
		close(entered)
		<-release
	}
	defer func() { testCkptSerialize = nil }()

	ckptErr := make(chan error, 1)
	go func() { ckptErr <- m.Checkpoint() }()
	<-entered

	// The checkpoint is frozen mid-serialization. A full durable commit
	// — insert, append, covering fsync, ack — must run to completion
	// before the checkpoint is released; this is an ordering proof, not
	// a timing one (the timeout only bounds the failure mode).
	committed := make(chan error, 1)
	go func() {
		if _, _, _, err := st.Insert(2, tup("C", c("during"))); err != nil {
			committed <- err
			return
		}
		committed <- st.CommitBatch([]int{2})
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("durable commit stalled behind an in-flight checkpoint serialization")
	}

	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}

	// The checkpoint paired with batch 1: the commit that landed during
	// serialization is not inside it, it is in the surviving segment.
	m.mu.Lock()
	lastCkpt, batches := m.lastCkpt, m.batches
	m.mu.Unlock()
	if lastCkpt != 1 || batches != 2 {
		t.Fatalf("lastCkpt = %d, batches = %d; want checkpoint at 1 of 2", lastCkpt, batches)
	}
	want := st.Dump(allSeeing)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery composes the frozen checkpoint with the redo of the
	// mid-checkpoint batch, byte-identically.
	st2, info, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 2 || info.CheckpointBatch != 1 {
		t.Fatalf("recovered LastBatch = %d, CheckpointBatch = %d; want 2 and 1", info.LastBatch, info.CheckpointBatch)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointPairsWithInFlightCommit drives the pairing retry: the
// checkpointer observes a batch counter ahead of the epoch it was
// handed (a commit between its append and its batch-count advance, or
// one that landed after the epoch was built) and must ask for a newer
// epoch rather than pair a stale one with a newer batch index.
func TestCheckpointPairsWithInFlightCommit(t *testing.T) {
	dir := t.TempDir()
	m, st, err := Open(dir, testSchema(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Commits racing checkpoints: every checkpoint must pair cleanly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 8; i++ {
			if _, _, _, err := st.Insert(i, tup("C", c("r"+string(rune('a'+i))))); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if err := st.CommitBatch([]int{i}); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	for j := 0; j < 4; j++ {
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// After quiescing, the epoch counter and batch counter agree.
	m.mu.Lock()
	batches := m.batches
	m.mu.Unlock()
	if got := st.Epoch().Commits(); got != batches {
		t.Fatalf("epoch Commits = %d, manager batches = %d", got, batches)
	}
}

// TestCheckpointUnderCommitsThenCrash: checkpoints are cut from epochs
// the store builds on demand while two-stripe commits are in flight —
// first racing freely, then with one checkpoint frozen between pairing
// and serialization while further commits are appended, synced and
// acknowledged — and then the process dies. Recovery must compose the
// last checkpoint with the surviving log exactly: the checkpoint holds
// the two tuples of each batch up to its index and nothing of a later
// one, every later batch is replayed once, no acknowledged key is
// missing from either relation, and the instance is byte-identical to
// the one that crashed.
func TestCheckpointUnderCommitsThenCrash(t *testing.T) {
	dir := t.TempDir()
	m, st, err := Open(dir, testSchema(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acked []string
	// commitKeys commits n single-writer batches, each putting one fresh
	// key into BOTH relations, and records the key once the commit is
	// acknowledged.
	commitKeys := func(g, n int) {
		for i := 0; i < n; i++ {
			w := 1 + g + 8*i
			key := fmt.Sprintf("k%d-%d", g, i)
			if _, _, _, err := st.Insert(w, tup("C", c(key))); err != nil {
				t.Error(err)
				return
			}
			if _, _, _, err := st.Insert(w, tup("S", c(key), c("loc"), c(key))); err != nil {
				t.Error(err)
				return
			}
			if err := st.CommitBatch([]int{w}); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			acked = append(acked, key)
			mu.Unlock()
		}
	}

	// Phase 1: commits race checkpoints.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) { defer wg.Done(); commitKeys(g, 30) }(g)
	}
	for j := 0; j < 5; j++ {
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// Phase 2: one checkpoint frozen mid-flight while commits complete.
	entered := make(chan struct{})
	release := make(chan struct{})
	testCkptSerialize = func() {
		close(entered)
		<-release
	}
	defer func() { testCkptSerialize = nil }()
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- m.Checkpoint() }()
	<-entered
	for g := 2; g < 4; g++ {
		wg.Add(1)
		go func(g int) { defer wg.Done(); commitKeys(g, 10) }(g)
	}
	wg.Wait()
	close(release)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	m.mu.Lock()
	lastCkpt, batches := m.lastCkpt, m.batches
	m.mu.Unlock()
	if batches != 80 || lastCkpt != 60 {
		t.Fatalf("batches = %d, lastCkpt = %d; want 80 and the frozen checkpoint at 60", batches, lastCkpt)
	}
	want := st.Dump(allSeeing)
	m.crashStop()

	st2, info, err := Recover(dir, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointBatch != lastCkpt || info.CheckpointTuples != int(2*lastCkpt) {
		t.Fatalf("recovered from checkpoint %d holding %d tuples; want %d holding %d",
			info.CheckpointBatch, info.CheckpointTuples, lastCkpt, 2*lastCkpt)
	}
	if info.LastBatch != batches || info.CheckpointBatch+int64(info.BatchesReplayed) != info.LastBatch {
		t.Fatalf("recovered through batch %d replaying %d on checkpoint %d; want every batch after the checkpoint once, through %d",
			info.LastBatch, info.BatchesReplayed, info.CheckpointBatch, batches)
	}
	sn := st2.Snap(allSeeing)
	for _, key := range acked {
		if !contains(sn, tup("C", c(key))) || !contains(sn, tup("S", c(key), c("loc"), c(key))) {
			t.Fatalf("acknowledged key %s lost in recovery", key)
		}
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
