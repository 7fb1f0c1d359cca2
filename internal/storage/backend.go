package storage

import (
	"youtopia/internal/model"
)

// Backend is the storage surface the update-exchange engine consumes:
// everything chase execution, concurrency control, stored read
// queries, and the repository layer need from a store, and nothing
// they don't. *Store implements it; the engine layers are written
// against the interface so that a decorator (a tracing wrapper, say)
// can stand in for the store.
//
// The contract, beyond the method comments on *Store:
//
//   - Every method is individually atomic, the ones that span
//     relations included, and safe for concurrent use (multi-operation
//     protocols need the concurrency-control layer on top, which runs
//     them one at a time).
//   - Sequence numbers are totally ordered across the whole backend in
//     the order writes land, and labeled nulls are unique
//     backend-wide.
//   - CommitBatchAsync hands the durability hook only batches with at
//     least one write record; a commit of a write-free update leaves
//     nothing in the store that recovery needs.
type Backend interface {
	// Schema returns the schema the backend was created over.
	Schema() *model.Schema
	// FreshNull mints a labeled null unused anywhere in the backend;
	// ReserveNullSpace reserves a namespace for a chase's minted nulls.
	FreshNull() model.Value
	ReserveNullSpace() int64
	// Snap returns a read view at the given reader priority; SnapInto
	// writes the same view into a caller-owned value, so a conflict
	// checker re-derives its view per check without allocating.
	Snap(reader int) *Snapshot
	SnapInto(dst *Snapshot, reader int)
	// EpochSnap returns a committed-state snapshot: a live view, like
	// Snap's, that admits only versions of committed writers. It is
	// neither frozen nor lock-free; each read takes the store's read
	// lock.
	EpochSnap() *Snapshot

	// Insert, Delete, DeleteContent and ReplaceNull are the write
	// operations of §2; Load inserts committed initial (writer 0) data.
	Insert(writer int, t model.Tuple) (id TupleID, rec WriteRec, inserted bool, err error)
	Delete(writer int, id TupleID) (rec WriteRec, ok bool, err error)
	DeleteContent(writer int, t model.Tuple) ([]WriteRec, error)
	ReplaceNull(writer int, x, to model.Value) ([]WriteRec, error)
	Load(t model.Tuple) (TupleID, error)

	// Abort rolls a writer back; Commit and CommitBatch make writers
	// permanent, blocking on durability; CommitBatchAsync returns once
	// the batch is appended, and its ack syncs and resolves when the
	// batch is durable. None keeps the writers slice: a caller may reuse
	// it once the call returns.
	Abort(writer int)
	Commit(writer int) error
	CommitBatch(writers []int) error
	CommitBatchAsync(writers []int) (CommitAck, error)

	// SetCommitHook installs the durability hook; it must be called
	// before the backend sees concurrent use. SyncCount reports the
	// backend's fsync count.
	SetCommitHook(h CommitHook)
	SyncCount() int64

	// CurrentSeq is the backend-wide sequence high-water mark, which
	// every write and every Abort that removes versions advances: while
	// it stands still, no live snapshot's view changes. A stored read
	// records it as its read sequence (Snapshot.CurrentSeq).
	CurrentSeq() int64

	// AppendUncommittedWrites is the one scan of the live write log:
	// every uncommitted write into rel ("" = every relation), appended
	// to dst in no particular order; PRECISE reads it for the violation
	// queries it evaluates against the database. AppendWritesOf is the
	// same scan over one writer's log, which an abort wave reads into a
	// reused buffer. WritesOf, UncommittedWrites and UncommittedWritesOf
	// are seq-sorted views over them.
	//
	// AppendUncommittedWriters is the same scan over writers instead of
	// records: every uncommitted writer into rel, or only those with a
	// write match accepts (match runs under the store's read lock and
	// must not call the backend), appended in no particular order and
	// possibly repeated. It is what COARSE charges its dependencies
	// from (§5.1.1); UncommittedWritersOf is its sorted, compacted
	// view.
	AppendUncommittedWrites(dst []WriteRec, rel string) []WriteRec
	AppendUncommittedWriters(dst []int, rel string, match func(*WriteRec) bool) []int
	AppendWritesOf(dst []WriteRec, writer int) []WriteRec
	WritesOf(writer int) []WriteRec
	UncommittedWrites() []WriteRec
	UncommittedWritesOf(rel string) []WriteRec
	UncommittedWritersOf(rel string) []int

	// Stats and Dump summarize contents for diagnostics and golden
	// tests.
	Stats() Stats
	Dump(reader int) string
}

var _ Backend = (*Store)(nil)
