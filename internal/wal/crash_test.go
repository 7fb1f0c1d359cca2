package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// These table tests pin down the crash points of the ISSUE: a process
// killed right after an append, between an append and its covering
// sync, between the sync and the acknowledgment, halfway through a
// checkpoint, or between checkpoint install and segment truncation
// must always recover to the serial oracle — the state after the last
// wholly durable commit batch, never anything partial. An
// acknowledged batch must always be recovered; an appended-but-
// unacknowledged batch may be recovered fully or cut at a frame
// boundary, never partially applied.

// crashStop simulates a kill -9 against a live manager: background
// goroutines are stopped and the segment handle is closed WITHOUT the
// close-time covering sync, leaving the directory exactly as an OS
// crash would find the file — except for page-cache loss, which the
// tests simulate afterwards by truncating or corrupting the tail.
// Acks that were never waited on stay unacknowledged, which is the
// point: the invariant under test only protects acknowledged batches.
func (m *Manager) crashStop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for m.syncing {
		m.syncCond.Wait()
	}
	if m.f != nil {
		m.f.Close()
		m.f = nil
	}
	m.syncCond.Broadcast()
	m.mu.Unlock()
	m.stopBackground()
}

// driveWorkload runs a fixed scripted workload covering every write
// kind (insert, delete, null-replacing modify, a set-semantics
// collapse, cross-relation batches) and returns the oracle: the
// committed instance after each commit batch, dumps[0] being the
// empty base.
func driveWorkload(t *testing.T, st *storage.Store) []string {
	t.Helper()
	dumps := []string{st.Dump(allSeeing)}
	commit := func(ws ...int) {
		mustCommitBatch(t, st, ws...)
		dumps = append(dumps, st.Dump(allSeeing))
	}

	// Batch 1: plain inserts across both relations.
	mustInsert(t, st, 1, tup("C", c("a")))
	sid := mustInsert(t, st, 1, tup("S", c("s1"), c("loc"), c("a")))
	commit(1)

	// Batch 2: two writers — a shared labeled null and a delete.
	x := st.FreshNull()
	mustInsert(t, st, 2, tup("C", x))
	mustInsert(t, st, 2, tup("S", c("s2"), x, c("a")))
	if _, ok, err := st.Delete(3, sid); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	commit(2, 3)

	// Batch 3: a global null replacement (modify records).
	if _, err := st.ReplaceNull(4, x, c("b")); err != nil {
		t.Fatal(err)
	}
	commit(4)

	// Batch 4: a replacement that collapses onto an existing tuple
	// (delete record from inside ReplaceNull).
	y := st.FreshNull()
	mustInsert(t, st, 5, tup("C", y))
	commit(5)
	if _, err := st.ReplaceNull(6, y, c("b")); err != nil {
		t.Fatal(err)
	}
	commit(6)

	// Batch 6: more inserts after all that.
	mustInsert(t, st, 7, tup("S", c("s3"), c("l3"), c("b")))
	commit(7)
	return dumps
}

func TestCrashPoints(t *testing.T) {
	type env struct {
		dir   string
		m     *Manager
		st    *storage.Store
		dumps []string
	}
	lastSegment := func(t *testing.T, dir string) string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments in %s (err %v)", dir, err)
		}
		return segs[len(segs)-1]
	}
	cases := []struct {
		name string
		// crash simulates the kill: it may close the manager (or not)
		// and mangle the directory. It returns the batch index the
		// recovery must land on (len(dumps)-1 = everything).
		crash func(t *testing.T, e *env) int
	}{
		{"clean-close", func(t *testing.T, e *env) int {
			if err := e.m.Close(); err != nil {
				t.Fatal(err)
			}
			return len(e.dumps) - 1
		}},
		{"kill-after-append", func(t *testing.T, e *env) int {
			// No Close: the manager still holds the segment open, as a
			// killed process would have. Every batch was synced.
			return len(e.dumps) - 1
		}},
		{"kill-between-append-and-sync-tail-survives", func(t *testing.T, e *env) int {
			// One more batch committed through the pipeline but never
			// acknowledged (the ack is dropped), then a kill before any
			// covering sync is guaranteed. With the page cache intact
			// the frame survives — recovering the batch fully is one of
			// the two permitted outcomes.
			mustInsert(t, e.st, 8, tup("C", c("unacked")))
			if _, err := e.st.CommitBatchAsync([]int{8}); err != nil {
				t.Fatal(err)
			}
			e.m.crashStop()
			e.dumps = append(e.dumps, e.st.Dump(allSeeing))
			return len(e.dumps) - 1
		}},
		{"kill-between-append-and-sync-tail-lost", func(t *testing.T, e *env) int {
			// Same unacknowledged batch, but the unsynced page-cache
			// tail is lost with the crash: the frame vanishes at its
			// boundary and recovery lands exactly on the acknowledged
			// prefix — the other permitted outcome.
			mustInsert(t, e.st, 8, tup("C", c("unacked")))
			if _, err := e.st.CommitBatchAsync([]int{8}); err != nil {
				t.Fatal(err)
			}
			e.m.crashStop()
			seg := lastSegment(t, e.dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			ends := batchEndOffsets(t, data)
			cut := int64(headerLen) // sole frame: the segment empties
			if len(ends) >= 2 {
				cut = ends[len(ends)-2]
			}
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			return len(e.dumps) - 1
		}},
		{"kill-between-append-and-sync-tail-partial", func(t *testing.T, e *env) int {
			// Only part of the unsynced frame reaches disk: the CRC
			// cuts the torn frame and the batch vanishes entirely —
			// never a partial application.
			mustInsert(t, e.st, 8, tup("C", c("unacked")))
			if _, err := e.st.CommitBatchAsync([]int{8}); err != nil {
				t.Fatal(err)
			}
			e.m.crashStop()
			seg := lastSegment(t, e.dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			ends := batchEndOffsets(t, data)
			if err := os.Truncate(seg, ends[len(ends)-1]-3); err != nil {
				t.Fatal(err)
			}
			return len(e.dumps) - 1
		}},
		{"kill-between-sync-and-ack", func(t *testing.T, e *env) int {
			// The covering sync lands (the ack ticket resolves) but the
			// process dies before anyone observes the acknowledgment:
			// the batch is durable and MUST be recovered.
			mustInsert(t, e.st, 8, tup("C", c("synced-unobserved")))
			ack, err := e.st.CommitBatchAsync([]int{8})
			if err != nil {
				t.Fatal(err)
			}
			if ack == nil {
				t.Fatal("durable store returned no ack")
			}
			if err := ack(); err != nil {
				t.Fatal(err)
			}
			e.m.crashStop()
			e.dumps = append(e.dumps, e.st.Dump(allSeeing))
			return len(e.dumps) - 1
		}},
		{"kill-mid-append-torn-frame", func(t *testing.T, e *env) int {
			e.m.Close()
			// A frame header promising more bytes than follow: the
			// classic torn tail.
			seg := lastSegment(t, e.dir)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
			f.Close()
			return len(e.dumps) - 1
		}},
		{"kill-mid-append-truncated-batch", func(t *testing.T, e *env) int {
			e.m.Close()
			// Cut into the last complete frame: that batch must vanish
			// entirely.
			seg := lastSegment(t, e.dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			ends := batchEndOffsets(t, data)
			if len(ends) < 2 {
				t.Skipf("last segment holds %d batches", len(ends))
			}
			if err := os.Truncate(seg, ends[len(ends)-1]-3); err != nil {
				t.Fatal(err)
			}
			return len(e.dumps) - 2
		}},
		{"kill-mid-checkpoint-tmp-left", func(t *testing.T, e *env) int {
			e.m.Close()
			// A half-written temp checkpoint must be ignored (and is
			// cleaned up by Open).
			tmp := filepath.Join(e.dir, tmpCkptName)
			if err := os.WriteFile(tmp, []byte(ckptMagic+"garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			return len(e.dumps) - 1
		}},
		{"kill-between-install-and-truncate", func(t *testing.T, e *env) int {
			// Checkpoint durable, fully-covered segments still around:
			// their records must be skipped, not replayed twice.
			saved := map[string][]byte{}
			segs, _ := filepath.Glob(filepath.Join(e.dir, segPrefix+"*"))
			for _, s := range segs {
				data, err := os.ReadFile(s)
				if err != nil {
					t.Fatal(err)
				}
				saved[s] = data
			}
			if err := e.m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			e.m.Close()
			for s, data := range saved {
				if err := os.WriteFile(s, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return len(e.dumps) - 1
		}},
		{"kill-after-truncate", func(t *testing.T, e *env) int {
			if err := e.m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			e.m.Close()
			return len(e.dumps) - 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema := testSchema()
			e := &env{dir: t.TempDir()}
			// Tiny segments so multi-segment cases are exercised.
			m, st, err := Open(e.dir, schema, Options{SegmentBytes: 192, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			e.m = m
			e.st = st
			t.Cleanup(m.crashStop) // reap goroutines of no-Close cases
			e.dumps = driveWorkload(t, st)

			wantBatch := tc.crash(t, e)
			st2, info, err := Recover(e.dir, schema)
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Dump(allSeeing); got != e.dumps[wantBatch] {
				t.Fatalf("recovered instance != serial oracle at batch %d:\n got:\n%s\nwant:\n%s",
					wantBatch, got, e.dumps[wantBatch])
			}
			if info.LastBatch != int64(wantBatch) {
				t.Fatalf("LastBatch = %d, want %d", info.LastBatch, wantBatch)
			}

			// Life goes on: reopen (repairing whatever the crash left),
			// commit one more batch, recover again.
			m2, st3, err := Open(e.dir, schema, Options{SegmentBytes: 192, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			if got := st3.Dump(allSeeing); got != e.dumps[wantBatch] {
				t.Fatalf("Open recovered a different instance than Recover")
			}
			if fileExists(vfs.OS, filepath.Join(e.dir, tmpCkptName)) {
				t.Fatal("Open left the temp checkpoint behind")
			}
			mustInsert(t, st3, 1, tup("C", c("after-crash")))
			mustCommitBatch(t, st3, 1)
			want := st3.Dump(allSeeing)
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
			st4, _, err := Recover(e.dir, schema)
			if err != nil {
				t.Fatal(err)
			}
			if got := st4.Dump(allSeeing); got != want {
				t.Fatalf("post-repair commit lost:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// corruptFile flips the last byte of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptOnlyCheckpointRefusesRecovery pins the data-loss guard:
// a checkpoint may be the only durable copy of writer-0 bootstrap
// loads (they never pass through the commit log), so when every
// checkpoint is corrupt, recovery must refuse — not silently rebuild
// a partial instance from the segments.
func TestCorruptOnlyCheckpointRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap data that exists only in the checkpoint.
	if _, err := st.Load(tup("C", c("seed"))); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Plus a logged batch on top.
	mustInsert(t, st, 1, tup("C", c("logged")))
	mustCommitBatch(t, st, 1)
	m.Close()

	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"))
	if len(ckpts) != 1 {
		t.Fatalf("want 1 checkpoint, got %d", len(ckpts))
	}
	corruptFile(t, ckpts[0])
	if _, _, err := Recover(dir, schema); err == nil {
		t.Fatal("recovery with only a corrupt checkpoint succeeded — the seed tuple would be silently lost")
	}
	if _, _, err := Open(dir, schema, Options{}); err == nil {
		t.Fatal("Open with only a corrupt checkpoint succeeded")
	}
}

// TestCorruptNewestCheckpointFallsBackToOlder: while a new checkpoint
// is installed the previous one still exists (retire runs strictly
// after), so a corrupt newest checkpoint falls back to the older one
// plus the still-present segments.
func TestCorruptNewestCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)
	if err := m.Checkpoint(); err != nil { // ckpt-1
		t.Fatal(err)
	}
	mustInsert(t, st, 2, tup("C", c("b")))
	mustCommitBatch(t, st, 2)
	want := st.Dump(allSeeing)

	// Simulate the crash window between install of ckpt-2 and retire:
	// save everything, checkpoint, then put the old files back next to
	// the new checkpoint and corrupt the new one.
	saved := map[string][]byte{}
	for _, pat := range []string{segPrefix + "*", ckptPrefix + "*"} {
		files, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, p := range files {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			saved[p] = data
		}
	}
	if err := m.Checkpoint(); err != nil { // ckpt-2
		t.Fatal(err)
	}
	m.Close()
	for p, data := range saved {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corruptFile(t, filepath.Join(dir, ckptName(2)))

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointBatch != 1 {
		t.Fatalf("fell back to checkpoint %d, want 1", info.CheckpointBatch)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("fallback recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAppendFailurePoisonsLog: after any append-path I/O failure the
// manager must refuse further appends — a later successful append
// landing beyond a torn tail would be truncated away by the next
// recovery, silently losing an acknowledged commit.
func TestAppendFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("a")))
	mustCommitBatch(t, st, 1)

	// Yank the segment out from under the manager: the next append's
	// write fails.
	m.mu.Lock()
	m.f.Close()
	m.mu.Unlock()

	id := mustInsert(t, st, 2, tup("C", c("b")))
	if err := st.CommitBatch([]int{2}); err == nil {
		t.Fatal("commit over a dead segment succeeded")
	}
	if _, ok := st.EpochSnap().Get(id); ok {
		t.Fatal("writer 2 committed although the append failed")
	}
	// The log is poisoned: even a commit that could physically succeed
	// now must be refused.
	mustInsert(t, st, 3, tup("C", c("c")))
	if err := st.CommitBatch([]int{3}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("commit after poisoning: err = %v, want poisoned refusal", err)
	}
	m.Close()

	// Recovery still sees exactly the acknowledged prefix.
	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 1 {
		t.Fatalf("LastBatch = %d, want 1", info.LastBatch)
	}
	if got, want := st2.Dump(allSeeing), "C(a)"; got != want {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}
