package storage

import (
	"fmt"
	"slices"
	"sort"

	"youtopia/internal/model"
)

// This file is the storage half of the durability subsystem: the
// commit hook that turns every group commit into one write-ahead-log
// append, the committed-instance snapshot used by checkpoints, and the
// redo application used by recovery. The log format itself lives in
// internal/wal; storage only exposes the structured state.

// CommitAck blocks until the commit batch that returned it is durable
// and reports the outcome. The commit pipeline splits a durable commit
// into append-under-lock and sync-outside: the hook appends the batch
// to its log while CommitBatch holds the locks of the stripes the
// batch wrote, but the fsync happens after the locks are released, and
// the ack is how a caller waits for it. Callers must not acknowledge a
// commit to anyone — return from a synchronous apply, completion of a
// scheduler run — before the ack resolves without error.
type CommitAck func() error

// CommitHook observes a commit batch before it takes effect. It is
// called by CommitBatch, one batch at a time, while the locks of the
// stripes the batch wrote are held, with the batch's writers in
// ascending order and their write records merged in (writer, seq)
// order — the serialization order of the batch. Both
// slices are only valid for the duration of the call (the record slice
// is a scratch buffer the store reuses across batches); hooks that
// retain them must copy.
//
// A non-nil error vetoes the commit: the store is left unchanged and
// CommitBatch returns the error. On success the hook may return a
// CommitAck that the caller uses to await durability; a nil ack means
// the batch is durable (or durability is not required) the moment the
// hook returns. The hook must not call back into the store.
type CommitHook func(writers []int, recs []WriteRec) (CommitAck, error)

// SetCommitHook installs the durability hook. It must be called before
// the store sees concurrent use (the field is read without a lock on
// the commit path).
func (st *Store) SetCommitHook(h CommitHook) { st.commitHook = h }

// CommitGuard is a fast pre-commit admission check: a non-nil return
// rejects the commit before any stripe lock is taken, with the store
// unchanged. Durability backends install one so a log that degraded
// to read-only rejects new submissions cheaply while epoch-snapshot
// reads keep serving. The guard runs outside every store lock and
// must not call back into the store; it is advisory — the commit hook
// remains the authoritative veto.
type CommitGuard func() error

// SetCommitGuard installs the admission guard. Like SetCommitHook it
// must be called before the store sees concurrent use.
func (st *Store) SetCommitGuard(g CommitGuard) { st.commitGuard = g }

// Persistent reports whether a durability hook is installed, which is
// how the schedulers know each commit batch costs a log append.
func (st *Store) Persistent() bool { return st.commitHook != nil }

// SetSyncCounter installs a callback reporting how many log fsyncs the
// durability backend has issued so far. The schedulers diff it across
// a run to report Metrics.WALSyncs: with the pipelined sync decoupled
// from the commit lock, consecutive batches coalesce and the count can
// be strictly below the commit-batch count. Like SetCommitHook it must
// be installed before the store sees concurrent use.
func (st *Store) SetSyncCounter(f func() int64) { st.syncCounter = f }

// SyncCount returns the durability backend's fsync count (0 without a
// counter installed).
func (st *Store) SyncCount() int64 {
	if st.syncCounter == nil {
		return 0
	}
	return st.syncCounter()
}

// sortedWriters returns an ascending copy of a commit batch's writers.
func sortedWriters(writers []int) []int {
	out := append([]int(nil), writers...)
	sort.Ints(out)
	return out
}

// batchWrites merges the live write logs of a commit batch's writers
// across the stripes they wrote, sorted by (writer, seq) — the order
// recovery replays them in. The result reuses the store's commit
// scratch buffer (sized exactly from the per-writer log lengths, so
// steady-state batches allocate nothing) and is valid only until the
// next batch; CommitBatch hands it to the hook under that contract.
// Callers hold those stripes' locks and batchMu, which is what
// serializes scratch reuse.
func (st *Store) batchWrites(stripes, writers []int) []WriteRec {
	n := 0
	for _, si := range stripes {
		for _, w := range writers {
			n += len(st.byIdx[si].logs[w])
		}
	}
	out := st.commitScratch
	if cap(out) < n {
		out = make([]WriteRec, 0, n)
	}
	out = out[:0]
	for _, si := range stripes {
		for _, w := range writers {
			out = append(out, st.byIdx[si].logs[w]...)
		}
	}
	slices.SortFunc(out, func(a, b WriteRec) int {
		if a.Writer != b.Writer {
			return a.Writer - b.Writer
		}
		return int(a.Seq - b.Seq)
	})
	st.commitScratch = out
	return out
}

// CommitMergeProbe returns a closure performing one commit-batch merge
// of the writers' live logs — exactly what CommitBatch hands to the
// durability hook. The closure reuses the store's scratch buffer, so
// after a warm-up call it exhibits the steady-state allocation
// behaviour of the commit path; experiments.ParallelStudy publishes
// its allocs/op into the bench artifacts CI gates. The store must be
// quiescent while the probe runs.
func (st *Store) CommitMergeProbe(writers []int) func() {
	ws := sortedWriters(writers)
	return func() {
		st.batchMu.Lock()
		stripes, _ := st.lockBatch(ws)
		st.batchWrites(stripes, ws)
		st.unlockStripes(stripes)
		st.batchMu.Unlock()
	}
}

// ApplyRedo replays one committed write record during recovery. The
// record's tuple ID is preserved (so later records that reference it
// resolve), but the version is applied on behalf of writer 0 with a
// fresh sequence number: commits happen in priority order and redo
// records arrive sorted by (writer, seq), so collapsing the writers
// onto the committed initial database preserves every tuple's visible
// version while freeing the whole update-number space for the next
// run. No writer is live during recovery, so the horizon releases the
// superseded version at once: a tuple keeps one version, and a deleted
// one leaves the store. Not safe for concurrent use with live writers;
// recovery runs before the store is shared.
func (st *Store) ApplyRedo(rec WriteRec) error {
	s := st.stripes[rec.Rel]
	if s == nil {
		return fmt.Errorf("storage: redo record for undeclared relation %s", rec.Rel)
	}
	if got := st.stripeOf(rec.ID); got != s {
		return fmt.Errorf("storage: redo record for %s carries tuple ID %d of another stripe", rec.Rel, rec.ID)
	}
	st.noteNulls(rec.Before)
	st.noteNulls(rec.After)
	s.lock()
	defer s.unlock()
	st.raiseIDFloor(s, rec.ID)
	tr := s.tuples[rec.ID]
	v := version{seq: st.nextSeq.Add(1)}
	switch rec.Op {
	case OpInsert:
		if tr == nil {
			tr = new(tupleRec)
			s.tuples[rec.ID] = tr
			s.ids = addID(s.ids, rec.ID)
		}
		v.vals = append([]model.Value(nil), rec.After...)
	case OpDelete:
		if tr == nil {
			return fmt.Errorf("storage: redo delete of unknown tuple %d in %s", rec.ID, rec.Rel)
		}
		v.deleted = true
	case OpModify:
		if tr == nil {
			return fmt.Errorf("storage: redo modify of unknown tuple %d in %s", rec.ID, rec.Rel)
		}
		v.vals = append([]model.Value(nil), rec.After...)
	default:
		return fmt.Errorf("storage: redo record with unknown op %d", rec.Op)
	}
	st.insertVersion(s, rec.ID, tr, v)
	st.trimOrDefer(s, rec.ID, tr)
	return nil
}

// raiseIDFloor makes sure the stripe never mints id again. Callers
// hold the stripe's write lock.
func (st *Store) raiseIDFloor(s *stripe, id TupleID) {
	if local := int64(id) & (1<<localIDBits - 1); local > s.nextLocal {
		s.nextLocal = local
	}
}

// CommittedTuple is one tuple of the committed instance as a
// checkpoint serializes it: the preserved tuple ID, the owning
// relation, and the tuple's committed visible content (or a tombstone).
type CommittedTuple struct {
	ID      TupleID
	Rel     string
	Deleted bool
	// Vals is nil when Deleted. From CommittedSnapshot it is shared with
	// the store, which never changes a value slice: read it, do not
	// modify it.
	Vals []model.Value
}

// CommittedSnapshot extracts the committed instance — for every tuple,
// the maximal version in (writer, seq) order among committed writers —
// together with the labeled-null floor, in deterministic (stripe,
// tuple ID) order. It serializes the store's current commit epoch:
// Epoch read-locks only the stripes committed to since the last epoch
// anyone asked for, and the rendering itself takes no lock, so commits
// proceed while it runs. Callers that need to pair the cut with
// commit-batch bookkeeping match Epoch().Commits() against their own
// batch counter (see wal.Manager.Checkpoint), and take the tuple-ID
// floors from the same epoch (CommittedEpoch.IDFloors).
func (st *Store) CommittedSnapshot() ([]CommittedTuple, int64) {
	return st.Epoch().Serialize()
}

// RestoreSnapshot loads a checkpointed committed instance into a fresh
// store: every live tuple becomes a single writer-0 version under its
// preserved ID, and the null factory floor is restored so fresh nulls
// cannot collide with checkpointed ones. A tombstone only raises its
// relation's ID floor. idFloors, aligned with the schema's sorted
// relation names (nil when the checkpoint carries none), raises each
// relation's tuple-ID counter past IDs whose tuples were deleted and
// trimmed before the checkpoint, so none is ever minted again. The
// store must be empty.
func (st *Store) RestoreSnapshot(tuples []CommittedTuple, nullFloor int64, idFloors []int64) error {
	if len(idFloors) > len(st.byIdx) {
		return fmt.Errorf("storage: checkpoint carries %d ID floors for %d relations", len(idFloors), len(st.byIdx))
	}
	for i, floor := range idFloors {
		st.byIdx[i].nextLocal = max(st.byIdx[i].nextLocal, floor)
	}
	for _, ct := range tuples {
		s := st.stripes[ct.Rel]
		if s == nil {
			return fmt.Errorf("storage: checkpoint tuple for undeclared relation %s", ct.Rel)
		}
		if got := st.stripeOf(ct.ID); got != s {
			return fmt.Errorf("storage: checkpoint tuple for %s carries ID %d of another stripe", ct.Rel, ct.ID)
		}
		s.lock()
		if _, dup := s.tuples[ct.ID]; dup {
			s.unlock()
			return fmt.Errorf("storage: checkpoint declares tuple %d of %s twice", ct.ID, ct.Rel)
		}
		st.raiseIDFloor(s, ct.ID)
		if !ct.Deleted {
			st.noteNulls(ct.Vals)
			tr := new(tupleRec)
			s.tuples[ct.ID] = tr
			s.ids = addID(s.ids, ct.ID)
			st.insertVersion(s, ct.ID, tr, version{seq: st.nextSeq.Add(1), vals: append([]model.Value(nil), ct.Vals...)})
		}
		s.unlock()
	}
	st.nulls.SetFloor(nullFloor)
	return nil
}
