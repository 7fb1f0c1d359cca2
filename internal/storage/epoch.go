package storage

import (
	"sort"
	"sync/atomic"
	"time"

	"youtopia/internal/model"
)

// This file is the epoch-snapshot layer: an immutable copy-on-write
// record of each relation's committed contents, assembled into a
// store-wide CommittedEpoch behind one atomic pointer, so committed-
// state readers — snapshot reads, the planner's cardinality stats, the
// background checkpointer — never contend for the writers' locks in
// steady state. It is the PR 4 ReadPrefix pattern (immutable records
// behind atomic.Pointer) applied to the relation data itself.
//
// # Publication is pay-per-read
//
// Writers build nothing for readers. Each stripe carries a commitMut
// counter bumped (under the stripe's write lock) whenever its
// committed-visible content changes — a committed writer's version
// landing via insertVersion, or a commit batch flipping a writer with
// live writes in the stripe — and the store counts commit batches in
// commits. That is the whole cost of a commit on this layer: one
// atomic add per written stripe plus one for the count. A record
// remembers the commitMut it was built at; record fresh ⇔ counters
// match, checked with two atomic loads and no lock.
//
// Epoch is the one place records are built. It loads the cached epoch
// and, if every record is fresh, returns it: reads between commits take
// zero locks, which TestSnapshotReadLockFree pins with the lock probe
// below. Otherwise it rebuilds exactly the stale stripes and caches the
// result by compare-and-swap, so a store nobody reads committed state
// from — the common case on the update path (push an update only when
// the expected reads justify it, CUP in PAPERS.md) — never rebuilds.
//
// # Why every epoch is a consistent cut
//
// A commit batch holds the write locks of all the stripes it wrote
// while it flips its writers, bumps those stripes' commitMut and then,
// last, advances commits. A refresh
//
//  1. read-locks all the stale stripes together, in ascending order;
//  2. loads commits under those locks;
//  3. re-validates every stripe it did not lock against the record it
//     is about to reuse, and starts over if one moved;
//  4. rebuilds the locked stripes and releases them.
//
// A batch that shares a stripe with the locked set is wholly before the
// refresh (content rebuilt, count included) or blocked before it has
// changed anything. A batch disjoint from the locked set bumps
// commitMut before it advances commits and the refresh loads commits
// before it validates, so a batch the count includes always fails step
// 3, and a batch step 3 missed is in neither the count nor the reused
// records, which are immutable. The cut therefore never tears across
// stripes and Commits() is exactly the number of batches it contains,
// whether or not the CAS that caches it wins; the CAS only keeps a
// slower refresher from overwriting a newer cached epoch. After
// epochRefreshAttempts failed validations a refresh read-locks every
// stripe, which needs no validation, so a reader cannot spin behind a
// continuous commit stream.
//
// The one cross-stripe mutator besides commit is ReplaceNull, which
// the engine only ever runs for live uncommitted writers (committed
// writers cannot acquire new writes), so its versions never carry
// committed visibility at write time.
//
// # Pairing with the write-ahead log
//
// On a durable store a batch advances commits exactly when the
// durability hook accepted its append, in the same critical section,
// and batches run one at a time. wal.Manager.Checkpoint matches
// Commits() against its own batch counter to pair an epoch with the
// exact log position it reflects — and then serializes the checkpoint
// entirely outside the store's locks, so checkpointing never stalls
// commits.

// epochRefreshAttempts bounds the optimistic refreshes of one Epoch
// call before it falls back to read-locking every stripe.
const epochRefreshAttempts = 3

// maxReader is the all-seeing reader priority epoch snapshots use:
// every record they serve is already committed-only.
const maxReader = int(^uint(0) >> 1)

// relEpoch is one stripe's immutable committed snapshot: for every
// tuple with at least one committed version, the maximal committed
// version in (writer, seq) order. Value slices are shared with the
// store's version chains, which never mutate a slice in place, so
// publication copies only the spine. A per-column value index is
// built lazily on first use and published through its own pointer.
type relEpoch struct {
	mut   int64 // stripe.commitMut value the record was built at
	rel   string
	arity int

	ids  []TupleID       // ascending
	vals [][]model.Value // aligned with ids
	dead []bool          // aligned; true = committed tombstone
	live int             // count of non-tombstone entries

	// idFloor is the stripe's tuple-ID counter at build time: at least
	// every ID the record holds or held before a trim took it out.
	idFloor int64

	// valIdx[col][value.Hash()] lists the live tuple IDs (ascending)
	// whose committed-visible value in col equals value — exact, unlike
	// the live store's version-multiset index: vals keeps every value a
	// key was hashed from alive, so no two live values share a key.
	valIdx atomic.Pointer[[]map[uint64][]TupleID]
}

// find binary-searches the record for a tuple ID.
func (e *relEpoch) find(id TupleID) (int, bool) {
	i := sort.Search(len(e.ids), func(i int) bool { return e.ids[i] >= id })
	return i, i < len(e.ids) && e.ids[i] == id
}

// get returns the committed-visible values of a tuple, or ok == false
// for unknown or tombstoned tuples.
func (e *relEpoch) get(id TupleID) ([]model.Value, bool) {
	i, ok := e.find(id)
	if !ok || e.dead[i] {
		return nil, false
	}
	return e.vals[i], true
}

// scan calls fn for every live (non-tombstone) tuple in ascending ID
// order; fn returning false stops the scan.
func (e *relEpoch) scan(fn func(id TupleID, vals []model.Value) bool) {
	for i, id := range e.ids {
		if e.dead[i] {
			continue
		}
		if !fn(id, e.vals[i]) {
			return
		}
	}
}

// valIndex returns the lazy per-column value index, building and
// publishing it on first use. Concurrent builders race benignly: the
// first CAS wins and the record is immutable, so every build is
// identical.
func (e *relEpoch) valIndex() []map[uint64][]TupleID {
	if p := e.valIdx.Load(); p != nil {
		return *p
	}
	idx := make([]map[uint64][]TupleID, e.arity)
	for c := range idx {
		idx[c] = make(map[uint64][]TupleID)
	}
	for i, id := range e.ids {
		if e.dead[i] {
			continue
		}
		for c, v := range e.vals[i] {
			idx[c][v.Hash()] = append(idx[c][v.Hash()], id)
		}
	}
	e.valIdx.CompareAndSwap(nil, &idx)
	return *e.valIdx.Load()
}

// CommittedEpoch is a store-wide consistent committed snapshot: one
// relEpoch per stripe plus the commit-batch count it reflects. It is
// immutable; the store publishes successive epochs through one atomic
// pointer.
type CommittedEpoch struct {
	store   *Store
	commits int64
	rels    []*relEpoch // aligned with store.byIdx
}

// Commits returns the number of commit batches the store's durability
// hook accepted (appended) up to this epoch — the pairing token the
// checkpointer matches against its own batch counter. Batches without
// write records never reach the hook and are not counted, mirroring
// the log exactly.
func (ep *CommittedEpoch) Commits() int64 { return ep.commits }

// Serialize renders the epoch as checkpoint tuples in deterministic
// (stripe, tuple ID) order, together with the store's current
// labeled-null floor. Each tuple's Vals is the store's own immutable
// value slice, not a copy. It reads only immutable records plus one
// atomic counter, so it runs without any lock — commits proceed while a
// checkpoint serializes. The floor is read live rather than at
// capture time; it only ever grows, and any null inside the records
// was minted before publication, so the floor always covers them.
func (ep *CommittedEpoch) Serialize() ([]CommittedTuple, int64) {
	n := 0
	for _, e := range ep.rels {
		n += len(e.ids)
	}
	out := make([]CommittedTuple, 0, n)
	for _, e := range ep.rels {
		for i, id := range e.ids {
			out = append(out, CommittedTuple{ID: id, Rel: e.rel, Deleted: e.dead[i], Vals: e.vals[i]})
		}
	}
	return out, ep.store.nulls.Peek() - 1
}

// IDFloors returns, per relation in the schema's sorted name order,
// the tuple-ID counter the epoch's record of it was built at. A
// checkpoint carries them beside the null floor: trimming removes
// deleted tuples from the committed instance, so the surviving IDs no
// longer bound the ones already minted, and recovery must not mint a
// deleted tuple's ID again (a parked delete-by-ID could then hit the
// new tuple).
func (ep *CommittedEpoch) IDFloors() []int64 {
	out := make([]int64, len(ep.rels))
	for i, e := range ep.rels {
		out[i] = e.idFloor
	}
	return out
}

// buildRelEpoch snapshots one stripe's committed contents. Callers
// hold the stripe's lock (read or write).
func (st *Store) buildRelEpoch(s *stripe) *relEpoch {
	e := &relEpoch{
		mut:     s.commitMut.Load(),
		rel:     s.rel,
		arity:   st.schema.Arity(s.rel),
		idFloor: s.nextLocal,
	}
	ids := s.ids
	e.ids = make([]TupleID, 0, len(ids))
	e.vals = make([][]model.Value, 0, len(ids))
	e.dead = make([]bool, 0, len(ids))
	for _, id := range ids {
		tr := s.tuples[id]
		for i := len(tr.versions) - 1; i >= 0; i-- {
			v := &tr.versions[i]
			if !st.isCommitted(v.writer) {
				continue
			}
			e.ids = append(e.ids, id)
			e.vals = append(e.vals, v.vals)
			e.dead = append(e.dead, v.deleted)
			if !v.deleted {
				e.live++
			}
			break
		}
	}
	return e
}

// initEpoch publishes the empty epoch a fresh store starts from.
func (st *Store) initEpoch() {
	rels := make([]*relEpoch, len(st.byIdx))
	for i, s := range st.byIdx {
		rels[i] = &relEpoch{rel: s.rel, arity: st.schema.Arity(s.rel)}
	}
	st.epoch.Store(&CommittedEpoch{store: st, rels: rels})
}

// Epoch returns the store's current committed epoch: a consistent
// cross-stripe cut at least as recent as the call, paired with the
// number of commit batches it contains. When every cached record is
// fresh — always the case between one read and the next commit or
// writer-0 mutation — this is a single atomic load plus one counter
// comparison per stripe and takes no lock. Otherwise the stale stripes
// are rebuilt under their read locks (never a write lock) and the
// result is cached for later readers; see the file comment for why the
// cut is consistent.
func (st *Store) Epoch() *CommittedEpoch {
	for attempt := 0; ; attempt++ {
		ep := st.epoch.Load()
		if st.epochFresh(ep) {
			return ep
		}
		if fresh := st.refreshEpoch(ep, attempt >= epochRefreshAttempts); fresh != nil {
			return fresh
		}
		obsEpochRetries.Inc()
	}
}

// epochFresh reports whether every record of ep matches its stripe's
// commitMut.
func (st *Store) epochFresh(ep *CommittedEpoch) bool {
	for i, s := range st.byIdx {
		if ep.rels[i].mut != s.commitMut.Load() {
			return false
		}
	}
	return true
}

// refreshEpoch builds the successor of ep, reusing its fresh records.
// With all set it read-locks every stripe and always succeeds;
// otherwise it locks only the stale ones and returns nil when a stripe
// it left unlocked changed underneath it.
func (st *Store) refreshEpoch(ep *CommittedEpoch, all bool) *CommittedEpoch {
	// A nil slot marks a stripe this refresh holds the read lock of.
	rels := make([]*relEpoch, len(st.byIdx))
	for i, s := range st.byIdx {
		if all || ep.rels[i].mut != s.commitMut.Load() {
			s.rlock()
		} else {
			rels[i] = ep.rels[i]
		}
	}
	commits := st.commits.Load()
	valid := true
	for i, s := range st.byIdx {
		if rels[i] != nil && rels[i].mut != s.commitMut.Load() {
			valid = false
			break
		}
	}
	rebuilt := int64(0)
	for i, s := range st.byIdx {
		if rels[i] != nil {
			continue
		}
		if valid {
			if rels[i] = ep.rels[i]; rels[i].mut != s.commitMut.Load() {
				rels[i] = st.buildRelEpoch(s)
				rebuilt++
			}
		}
		s.runlock()
	}
	if !valid {
		return nil
	}
	fresh := &CommittedEpoch{store: st, commits: commits, rels: rels}
	obsEpochRefresh.Inc()
	obsEpochRebuilds.Add(rebuilt)
	if st.epoch.CompareAndSwap(ep, fresh) {
		obsEpochPublish.Inc()
	}
	return fresh
}

// EpochSnap returns a committed-state snapshot: a frozen view of the
// store's current epoch. Unlike Snap's live views it never changes
// under the caller — later commits leave its records untouched — and
// its reads acquire no stripe RWMutex; only minting the first one
// after a commit read-locks the stripes that commit wrote, and the
// planner's RelStats reads the live stripe.
func (st *Store) EpochSnap() *Snapshot {
	return &Snapshot{store: st, reader: maxReader, epoch: st.Epoch().rels}
}

// Lock probe: test instrumentation pinning the wait-free contract.
// While armed, every stripe-mutex acquisition (read or write, any
// path) increments the counter, write acquisitions a second one; the
// epoch read path must leave the first at zero between commits and the
// second at zero always. Disarmed — the production state — the probe
// is one shared atomic load per acquisition. Arming is global, so
// probing tests must not run in parallel with other store activity.
var (
	lockProbeArmed  atomic.Bool
	lockProbeCount  atomic.Int64
	lockProbeWrites atomic.Int64
)

// LockProbeArm zeroes and arms the stripe-lock acquisition counters.
func LockProbeArm() {
	lockProbeCount.Store(0)
	lockProbeWrites.Store(0)
	lockProbeArmed.Store(true)
}

// LockProbeDisarm disarms the probe and returns the number of stripe
// mutex acquisitions observed since LockProbeArm.
func LockProbeDisarm() int64 {
	lockProbeArmed.Store(false)
	return lockProbeCount.Load()
}

// LockProbeWriteLocks returns how many of the acquisitions counted
// since LockProbeArm were write locks.
func LockProbeWriteLocks() int64 { return lockProbeWrites.Load() }

func lockProbeNote(write bool) {
	if lockProbeArmed.Load() {
		lockProbeCount.Add(1)
		if write {
			lockProbeWrites.Add(1)
		}
	}
}

// lock / rlock are the stripe's probed mutex entry points; every
// acquisition in the package goes through them so the probe's count
// is sound. An immediately available mutex is taken with the
// try-acquire (same cost class as the plain acquire); only when that
// fails does the wait get timed into the contention histogram.
func (s *stripe) lock() {
	lockProbeNote(true)
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	obsLockContended.Inc()
	obsLockWait.ObserveSince(start)
}

func (s *stripe) unlock() { s.mu.Unlock() }

func (s *stripe) rlock() {
	lockProbeNote(false)
	if s.mu.TryRLock() {
		return
	}
	start := time.Now()
	s.mu.RLock()
	obsRLockContended.Inc()
	obsLockWait.ObserveSince(start)
}

func (s *stripe) runlock() { s.mu.RUnlock() }
