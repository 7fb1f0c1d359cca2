package storage

import "time"

// This file is the committed cut the checkpointer serializes, and the
// store lock entry points every acquisition in the package goes
// through.
//
// # Why every cut is consistent
//
// A commit batch holds the store's write lock while it flips its
// writers and then, last, advances commits. Epoch holds the read lock
// while it loads commits and copies each stripe's committed tops. A
// batch is therefore wholly before the cut, content and count
// included, or has not started; Commits() is exactly the number of
// batches the cut contains. ReplaceNull, the other mutator that spans
// relations, only ever runs for live uncommitted writers (committed
// writers cannot acquire new writes), so its versions never carry
// committed visibility at write time.
//
// # Pairing with the write-ahead log
//
// On a durable store a batch advances commits exactly when the
// durability hook accepted its append, in the same critical section,
// and batches run one at a time. wal.Manager.Checkpoint matches
// Commits() against its own batch counter to pair a cut with the exact
// log position it reflects — and then serializes the checkpoint
// entirely outside the store's locks, so commits wait only for the
// copy, never for the encoding or the disk.

// maxReader is the all-seeing reader priority.
const maxReader = int(^uint(0) >> 1)

// CommittedEpoch is a store-wide consistent committed cut: for every
// tuple with at least one committed version, the maximal committed
// version in (writer, seq) order, in (stripe, tuple ID) order, plus
// the commit-batch count it reflects and each stripe's tuple-ID
// counter. It is immutable once built.
type CommittedEpoch struct {
	store    *Store
	commits  int64
	tuples   []CommittedTuple
	idFloors []int64 // aligned with store.byIdx
}

// Commits returns the number of commit batches the store's durability
// hook accepted (appended) up to this cut — the pairing token the
// checkpointer matches against its own batch counter. Batches without
// write records never reach the hook and are not counted, mirroring
// the log exactly.
func (ep *CommittedEpoch) Commits() int64 { return ep.commits }

// Serialize returns the cut as checkpoint tuples in deterministic
// (stripe, tuple ID) order, together with the store's current
// counter-null floor (model.NullFactory.Floor). Each tuple's Vals is
// the store's own immutable value slice, not a copy. It takes no lock.
// The floor is read live rather than at capture time; it only ever
// grows, and any counter null inside the cut was minted before it, so
// the floor always covers them. Minted nulls need no floor: recovery
// notes their namespaces from the tuples themselves.
func (ep *CommittedEpoch) Serialize() ([]CommittedTuple, int64) {
	return ep.tuples, ep.store.nulls.Floor()
}

// IDFloors returns, per relation in the schema's sorted name order,
// the tuple-ID counter at the cut. A checkpoint carries them beside
// the null floor: trimming removes deleted tuples from the committed
// instance, so the surviving IDs no longer bound the ones already
// minted, and recovery must not mint a deleted tuple's ID again (a
// parked delete-by-ID could then hit the new tuple).
func (ep *CommittedEpoch) IDFloors() []int64 { return ep.idFloors }

// Epoch takes a committed cut: under the store's read lock it loads
// the commit count and copies each stripe's committed tops. Commits
// wait for the copy only; see the file comment for why the cut is
// consistent.
func (st *Store) Epoch() *CommittedEpoch {
	st.rlock()
	defer st.runlock()
	ep := &CommittedEpoch{store: st, commits: st.commits.Load(), idFloors: make([]int64, len(st.byIdx))}
	n := 0
	for _, s := range st.byIdx {
		n += s.count
	}
	ep.tuples = make([]CommittedTuple, 0, n)
	for i, s := range st.byIdx {
		ep.idFloors[i] = s.nextLocal
		for p, id := range s.members() {
			vs := s.chain(p)
			if j := st.newestCommitted(vs); j >= 0 {
				v := &vs[j]
				ep.tuples = append(ep.tuples, CommittedTuple{ID: id, Rel: s.rel, Deleted: v.vals == nil, Vals: s.valsOf(v)})
			}
		}
	}
	obsEpochPublish.Inc()
	return ep
}

// EpochSnap returns a committed-state snapshot: a live view that
// admits only versions of committed writers (writer 0 included), the
// maximal one winning. It is neither frozen nor lock-free — like Snap,
// each call reads the store as it is then, under the store's read
// lock — so it answers "what is committed now", not "what was
// committed at some cut"; Epoch takes the cut.
func (st *Store) EpochSnap() *Snapshot {
	return &Snapshot{store: st, reader: maxReader, committedOnly: true}
}

// lock / rlock are the store lock's entry points; every acquisition in
// the package goes through them. An immediately available mutex is
// taken with the try-acquire (same cost class as the plain acquire);
// only when that fails does the wait get timed into the contention
// histogram.
func (st *Store) lock() {
	if st.mu.TryLock() {
		return
	}
	start := time.Now()
	st.mu.Lock()
	obsLockContended.Inc()
	obsLockWait.ObserveSince(start)
}

func (st *Store) unlock() { st.mu.Unlock() }

func (st *Store) rlock() {
	if st.mu.TryRLock() {
		return
	}
	start := time.Now()
	st.mu.RLock()
	obsRLockContended.Inc()
	obsLockWait.ObserveSince(start)
}

func (st *Store) runlock() { st.mu.RUnlock() }
