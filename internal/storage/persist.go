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
// and reports the outcome. A durable commit is split into
// append-under-lock and sync-outside: the hook appends the batch to
// its log while CommitBatch holds the store's write lock, but the
// fsync happens after the lock is released, in the goroutine that
// calls the ack — one covering sync for every batch appended before
// it, so waiting on a run's last ack acknowledges the whole run.
// Callers must not acknowledge a commit to anyone — return from a
// synchronous apply, completion of a scheduler run — before the ack
// resolves without error.
type CommitAck func() error

// CommitHook observes a commit batch before it takes effect. It is
// called by CommitBatch, one batch at a time, under the store's write
// lock, with the batch's writers in
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
// rejects the commit before the store lock is taken, with the store
// unchanged. Durability backends install one so a log that degraded
// to read-only rejects new submissions cheaply while reads keep
// serving. The guard runs outside every store lock; it may take a
// committed cut (Epoch), as a log re-arming itself with a checkpoint
// does, but must not write to the store. It is advisory — the commit
// hook remains the authoritative veto.
type CommitGuard func() error

// SetCommitGuard installs the admission guard. Like SetCommitHook it
// must be called before the store sees concurrent use.
func (st *Store) SetCommitGuard(g CommitGuard) { st.commitGuard = g }

// SetSyncCounter installs a callback reporting how many log fsyncs the
// durability backend has issued so far. The schedulers diff it across
// a run to report Metrics.WALSyncs: one covering sync serves every
// batch appended before it, so the count can be strictly below the
// commit-batch count. Like SetCommitHook it must
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
// Callers hold the write lock, which is what serializes scratch reuse.
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
// its allocs/op into the bench artifacts CI gates. The probe takes the
// store's write lock for each merge, as a commit batch does.
func (st *Store) CommitMergeProbe(writers []int) func() {
	ws := sortedWriters(writers)
	return func() {
		st.lock()
		defer st.unlock()
		stripes, _ := st.batchStripes(ws)
		st.batchWrites(stripes, ws)
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
	if err := checkLocalID(rec.Rel, rec.ID); err != nil {
		return err
	}
	var vals []model.Value
	switch rec.Op {
	case OpDelete:
	case OpInsert, OpModify:
		if len(rec.After) != len(s.valIdx) {
			return fmt.Errorf("storage: redo %s of tuple %d in %s carries %d values for arity %d", rec.Op, rec.ID, rec.Rel, len(rec.After), len(s.valIdx))
		}
		vals = append([]model.Value(nil), rec.After...)
	default:
		return fmt.Errorf("storage: redo record with unknown op %d", rec.Op)
	}
	st.noteNulls(rec.Before)
	st.noteNulls(rec.After)
	st.lock()
	defer st.unlock()
	st.raiseIDFloor(s, rec.ID)
	if _, known := s.find(rec.ID); !known && rec.Op != OpInsert {
		return fmt.Errorf("storage: redo %s of unknown tuple %d in %s", rec.Op, rec.ID, rec.Rel)
	}
	st.insertVersion(s, rec.ID, newVersion(0, st.nextSeq.Add(1), vals))
	st.trimOrDefer(s, rec.ID)
	return nil
}

// raiseIDFloor makes sure the stripe never mints id again. Callers
// hold the write lock.
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
	// Vals is nil when Deleted. From CommittedEpoch.Serialize it is
	// shared with the store, which never changes a value slice: read it,
	// do not modify it.
	Vals []model.Value
}

// RestoreSnapshot loads a checkpointed committed instance into a fresh
// store: every live tuple becomes a single writer-0 version under its
// preserved ID, and the null factory floor is restored so fresh nulls
// cannot collide with checkpointed ones. A tombstone only raises its
// relation's ID floor. idFloors, aligned with the schema's sorted
// relation names (nil when the checkpoint carries none), raises each
// relation's tuple-ID counter past IDs whose tuples were deleted and
// trimmed before the checkpoint, so none is ever minted again. A floor
// or tuple ID past the ID space fails with ErrIDSpaceExhausted before
// anything is loaded. The store must be empty.
func (st *Store) RestoreSnapshot(tuples []CommittedTuple, nullFloor int64, idFloors []int64) error {
	if len(idFloors) > len(st.byIdx) {
		return fmt.Errorf("storage: checkpoint carries %d ID floors for %d relations", len(idFloors), len(st.byIdx))
	}
	for i, floor := range idFloors {
		if floor > maxLocalID {
			return fmt.Errorf("%w: checkpoint floor %d of %s is above %d", ErrIDSpaceExhausted, floor, st.byIdx[i].rel, maxLocalID)
		}
	}
	for _, ct := range tuples {
		s := st.stripes[ct.Rel]
		if s == nil {
			return fmt.Errorf("storage: checkpoint tuple for undeclared relation %s", ct.Rel)
		}
		if got := st.stripeOf(ct.ID); got != s {
			return fmt.Errorf("storage: checkpoint tuple for %s carries ID %d of another stripe", ct.Rel, ct.ID)
		}
		if err := checkLocalID(ct.Rel, ct.ID); err != nil {
			return err
		}
		if !ct.Deleted && len(ct.Vals) != len(s.valIdx) {
			return fmt.Errorf("storage: checkpoint tuple %d of %s carries %d values for arity %d", ct.ID, ct.Rel, len(ct.Vals), len(s.valIdx))
		}
	}
	for i, floor := range idFloors {
		st.byIdx[i].nextLocal = max(st.byIdx[i].nextLocal, floor)
	}
	st.lock()
	defer st.unlock()
	for _, ct := range tuples {
		s := st.stripes[ct.Rel]
		if _, dup := s.find(ct.ID); dup {
			return fmt.Errorf("storage: checkpoint declares tuple %d of %s twice", ct.ID, ct.Rel)
		}
		st.raiseIDFloor(s, ct.ID)
		if !ct.Deleted {
			st.noteNulls(ct.Vals)
			st.insertVersion(s, ct.ID, newVersion(0, st.nextSeq.Add(1), append([]model.Value(nil), ct.Vals...)))
		}
	}
	st.nulls.SetFloor(nullFloor)
	return nil
}
