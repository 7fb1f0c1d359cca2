// Package storage implements the multiversion tuple store that
// Youtopia's optimistic concurrency control is built on (§4.1 of the
// paper).
//
// Every write — tuple insertion, deletion, or modification through a
// null-replacement — creates a new version tagged with the writing
// update's priority number and a global sequence number. The version
// of a tuple visible to update j is the maximal one, in
// (writer, sequence) lexicographic order, among versions created by
// writers with priority number ≤ j. Visibility therefore follows the
// intended serialization order rather than wall-clock arrival order:
// if update 1 writes a tuple after update 3 already wrote it, readers
// at priority 3 and above see update 3's version.
//
// Writer 0 denotes the committed initial database. Aborting a writer
// atomically removes every version it created and repairs all indexes;
// committing a writer retires its write log and trims the history of
// the tuples it wrote.
//
// # The version horizon
//
// Committed history that no reader can still see leaves the store at
// commit (horizon.go). A committed version v that a newer committed
// version v' of the same tuple supersedes is garbage once, for every
// uncommitted writer u with live writes,
//
//   - u > v'.writer, so u's plain view already prefers v' to v, and
//   - v'.seq < first(u) - 1, where first(u) is the sequence number of
//     u's first live write (kept beside u's entry in writerStripes):
//     a read vector u captured at CurrentSeq before that write lies at
//     or above first(u) - 1, so a ceiling or a window built from it
//     admits v' and never falls through to v.
//
// Trimming drops the versions below the newest committed one together
// with their index entries (unindexVersion) and deletes a tuple whose
// only version left is a committed tombstone from the tuples, the
// member list and every index. A commit batch trims the tuples in its
// writers' logs under the stripe locks it already holds; what the
// horizon does not yet release goes on the stripe's pending list, which
// a later batch drains (adding those stripes to its ascending lock
// round) or the abort of the last live writer settles.
//
// Why the rule is sound: the stored reads that consult history are the
// ones with a ceiling or a window — ViolationRead and NullOccRead — and
// the chase issues them only after the attempt's first write, so their
// writer is live and bounds the horizon. A transaction with no live
// write holds only ContentReads, whose re-checks are structural and do
// not depend on history below the committed top. Masks hide one live
// write of an uncommitted writer, which trimming never touches.
//
// The contract this changes: a Snap(r) taken while r has no live write
// and r is below a committed writer whose history was trimmed sees the
// trimmed state — the newest committed version, or nothing for a
// deleted tuple — not the version the untrimmed chain held for it.
// Nothing in production reads that way: every update's reads are at
// or above the commit frontier, which commits in priority order.
// Tuple IDs are never reused: each stripe's counter only rises, and a
// checkpoint carries it (CommittedEpoch.IDFloors) because deleted
// tuples no longer appear in it.
//
// # Locking
//
// The store's write lock is striped by relation: each relation owns a
// stripe holding its tuples, indexes, its slice of the per-writer
// logs, and an
// RWMutex, so mutators of disjoint relations proceed truly
// concurrently and readers only contend on the stripes they touch.
// Three pieces of state span stripes and have their own coordination:
//
//   - nullIdx (labeled-null occurrences cross relations) is guarded by
//     nullMu, a leaf lock acquired while holding a stripe lock; no
//     stripe lock is ever acquired while holding nullMu.
//   - the committed-writer set, and the set of stripes each
//     uncommitted writer has written, are guarded by commitMu, a leaf
//     lock below the stripe locks.
//   - Abort and CommitBatch lock exactly the stripes their writers
//     wrote — that write set, not the schema, bounds their lock round
//     and their scan — in ascending stripe order. A writer's own
//     operations (its writes, its commit, its abort) must be issued one
//     at a time, which both schedulers do; different writers need no
//     coordination. Commit batches additionally serialize among
//     themselves on batchMu, taken before any stripe lock.
//   - the remaining cross-relation operations (ReplaceNull, the
//     write-log scan over every relation, Epoch, Stats, Dump) acquire
//     every stripe lock in ascending stripe order. Every multi-stripe
//     acquisition in the package is ascending, which makes these
//     operations atomic against all single-stripe operations and
//     against each other without a global mutex on the hot paths.
//
// Sequence numbers and tuple IDs are allocated without locks: the
// global sequence counter is atomic (assigned while holding the
// written stripe's lock, so per-stripe sequences stay monotone), and a
// TupleID encodes its stripe index in the high bits, so resolving an
// ID to its relation requires no shared lookup structure.
//
// Each exported operation is individually atomic; multi-operation
// protocols (a chase step's write-then-validate sequence) still need
// the concurrency-control layer's phase locking on top, which is what
// cc.ParallelScheduler provides. The one relaxation against the
// pre-striping store: snapshot reads that span relations
// (TuplesWithNull, VisibleFacts) lock stripe-by-stripe, so under
// concurrent mutators they may observe different relations at
// different instants — the schedulers never read while a writer runs,
// and single-relation calls remain fully atomic.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"youtopia/internal/model"
)

// TupleID identifies a logical tuple across its versions. The high
// bits carry the stripe (relation) index, the low localIDBits the
// per-stripe allocation counter, so the owning stripe is recoverable
// from the ID alone and IDs within one relation ascend in creation
// order.
type TupleID int64

// localIDBits is the width of the per-stripe counter inside a TupleID.
const localIDBits = 40

// Op classifies a write.
type Op uint8

const (
	// OpInsert creates a tuple.
	OpInsert Op = iota
	// OpDelete tombstones a tuple.
	OpDelete
	// OpModify rewrites a tuple's values (always part of a global
	// null-replacement in Youtopia).
	OpModify
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// WriteRec describes one performed write. Concurrency control checks
// these records against stored read queries (Algorithm 4).
type WriteRec struct {
	Writer int
	Seq    int64
	ID     TupleID
	Rel    string
	Op     Op
	// Before holds the values visible to the writer just before the
	// write (nil for inserts); After holds the written values (nil for
	// deletes).
	Before []model.Value
	After  []model.Value
}

// String renders the record for diagnostics.
func (w WriteRec) String() string {
	switch w.Op {
	case OpInsert:
		return fmt.Sprintf("[u%d#%d] insert %s", w.Writer, w.Seq, model.Tuple{Rel: w.Rel, Vals: w.After})
	case OpDelete:
		return fmt.Sprintf("[u%d#%d] delete %s", w.Writer, w.Seq, model.Tuple{Rel: w.Rel, Vals: w.Before})
	default:
		return fmt.Sprintf("[u%d#%d] modify %s => %s", w.Writer, w.Seq,
			model.Tuple{Rel: w.Rel, Vals: w.Before}, model.Tuple{Rel: w.Rel, Vals: w.After})
	}
}

// version is one entry of a tuple's version chain.
type version struct {
	writer  int
	seq     int64
	vals    []model.Value // nil when deleted
	deleted bool
}

// tupleRec is a logical tuple's version chain, kept sorted ascending
// by (writer, seq). Its ID is its key in the owning stripe's tuples map,
// and its relation is that stripe's.
type tupleRec struct {
	versions []version
}

// stripe is the per-relation slice of the store: one relation's
// tuples, secondary indexes, and slice of the per-writer logs, guarded
// by its own RWMutex.
type stripe struct {
	rel string
	idx int

	// mu guards every field below. Single-relation operations lock only
	// their stripe; cross-relation operations lock all stripes in
	// ascending idx order.
	mu sync.RWMutex

	nextLocal int64
	tuples    map[TupleID]*tupleRec
	ids       []TupleID // members of the relation, visible or not; see postings

	// valIdx[col][value.Hash()] lists the tuples with a version
	// carrying that value in that column, contentIdx[contentHash(vals)]
	// those with a version of that content or of one that hashes alike.
	// Both over-approximate; readers verify against their snapshot.
	// Keys are hashes so that the maps hold no pointers for the
	// collector to trace. A constant hashes by its address
	// (model.Value.Hash), so a key stays sound only because it leaves
	// the index with the last version carrying what it hashed
	// (unindexVersion): an index never outlives the values it hashed,
	// and while a value index key is present it names exactly one live
	// value.
	valIdx     []postings
	contentIdx postings

	// logs holds this relation's live writes per uncommitted writer;
	// a writer's entry goes when it commits or aborts.
	logs map[int][]WriteRec

	// seq publishes the highest global sequence number applied in this
	// stripe (monotone: assigned under mu). Concurrency control uses it
	// to validate conflict checks performed outside its exclusive phase
	// lock.
	seq atomic.Int64

	// pending lists tuples whose committed history the horizon did not
	// yet release when a commit (or a writer-0 write) made it garbage; a
	// later batch drains it. It may repeat an ID or name a tuple that is
	// gone. The stripe is in Store.pendingIn exactly while it is
	// non-empty. See horizon.go.
	pending []TupleID
}

// newID mints the next tuple ID of the stripe. Callers hold s.mu.
func (s *stripe) newID() TupleID {
	s.nextLocal++
	return TupleID(int64(s.idx)<<localIDBits | s.nextLocal)
}

// Store is the versioned repository storage, the Backend
// implementation.
type Store struct {
	schema *model.Schema
	nulls  model.NullFactory

	// nextSeq numbers every write of every relation, which keeps
	// sequence numbers totally ordered store-wide — the property the
	// cross-relation interference windows of the conflict checks rely
	// on (see query.ViolationRead.AffectedBy).
	nextSeq atomic.Int64

	// stripes is fixed at construction: one per schema relation.
	stripes   map[string]*stripe
	byIdx     []*stripe
	relsByIdx []string // sorted relation names, aligned with byIdx

	// nullMu guards nullIdx; see the package comment for lock order.
	nullMu sync.Mutex
	// nullIdx[null.Hash()] lists the tuples with a version containing
	// the labeled null.
	nullIdx postings

	// contentHash keys the stripes' content indexes. It is a field only
	// so that a test can substitute a colliding hash.
	contentHash func([]model.Value) uint64

	// commitMu guards committed, writerStripes and pendingIn.
	commitMu  sync.RWMutex
	committed map[int]bool
	// writerStripes[w] describes uncommitted writer w's live writes in
	// this store: the stripes they are in — a stripe joins with w's
	// first record in its logs — and the sequence number of the first.
	// The entry goes when w commits or aborts. The horizon is computed
	// from these entries.
	writerStripes map[int]liveWriter
	// pendingIn lists the stripes with a non-empty pending list.
	pendingIn []int

	// noTrim disables trimming; a test seam for differential checks.
	noTrim bool

	// commitHook, when non-nil, makes commits durable: CommitBatch
	// hands it every batch's write records before marking the writers
	// committed. Installed once via SetCommitHook before the store sees
	// concurrent use; see persist.go. syncCounter reports the backend's
	// fsync count (SetSyncCounter).
	commitHook  CommitHook
	commitGuard CommitGuard
	syncCounter func() int64

	// batchMu serializes commit batches, so the hook sees them, and
	// commits counts them, in one order. It also guards the two reusable
	// buffers a batch fills: the stripes it locks and the merged write
	// records it hands the hook.
	batchMu       sync.Mutex
	stripeScratch []int
	commitScratch []WriteRec
	// commits counts the batches with writes committed so far — on a
	// durable store exactly the batches the hook accepted. A batch
	// advances it while still holding its stripes' write locks, so a cut
	// taken under every stripe read lock pairs with it (epoch.go).
	commits atomic.Int64
}

// NewStore creates an empty store over a schema.
func NewStore(schema *model.Schema) *Store {
	names := schema.SortedNames()
	st := &Store{
		schema:    schema,
		stripes:   make(map[string]*stripe, len(names)),
		byIdx:     make([]*stripe, 0, len(names)),
		relsByIdx: names,
		committed: map[int]bool{0: true},

		contentHash: contentHash,

		writerStripes: make(map[int]liveWriter),
	}
	for i, name := range names {
		s := &stripe{
			rel:    name,
			idx:    i,
			tuples: make(map[TupleID]*tupleRec),
			valIdx: make([]postings, schema.Arity(name)),
			logs:   make(map[int][]WriteRec),
		}
		st.stripes[name] = s
		st.byIdx = append(st.byIdx, s)
	}
	return st
}

// stripeOf resolves a tuple ID to its stripe (nil for IDs no stripe
// could have minted).
func (st *Store) stripeOf(id TupleID) *stripe {
	i := int(int64(id) >> localIDBits)
	if i < 0 || i >= len(st.byIdx) {
		return nil
	}
	return st.byIdx[i]
}

// lockAll acquires every stripe's write lock in ascending order; the
// caller then owns the whole store. unlockAll releases them. Only
// ReplaceNull needs this; commits and aborts lock their write set.
func (st *Store) lockAll() {
	for _, s := range st.byIdx {
		s.lock()
	}
}

func (st *Store) unlockAll() {
	for _, s := range st.byIdx {
		s.unlock()
	}
}

// rlockAll / runlockAll are the shared-mode counterparts of lockAll.
func (st *Store) rlockAll() {
	for _, s := range st.byIdx {
		s.rlock()
	}
}

func (st *Store) runlockAll() {
	for _, s := range st.byIdx {
		s.runlock()
	}
}

// Schema returns the schema the store was created with.
func (st *Store) Schema() *model.Schema { return st.schema }

// FreshNull mints a labeled null unused anywhere in the store. It is
// safe to call concurrently (the factory is atomic) and takes no lock.
func (st *Store) FreshNull() model.Value { return st.nulls.Fresh() }

// NullMark captures the null-factory counter for RewindNulls.
func (st *Store) NullMark() int64 { return st.nulls.Mark() }

// RewindNulls lowers the null counter back to a NullMark capture. Only
// sound when every null minted after the mark was rolled back with its
// update attempt and no concurrent update is minting — the repository's
// single-update mode under its own lock. It keeps a parked-and-resumed
// update's replay minting the same null IDs the inline execution would.
func (st *Store) RewindNulls(mark int64) { st.nulls.Rewind(mark) }

// noteNulls raises the null-factory floor past any null in vals, so
// loading data with explicit nulls cannot collide with fresh ones.
func (st *Store) noteNulls(vals []model.Value) {
	for _, v := range vals {
		if v.IsNull() {
			st.nulls.SetFloor(v.NullID())
		}
	}
}

// contentHash folds a tuple's values into the key of the content
// index (multiply-xorshift per word; the constant is splitmix64's).
func contentHash(vals []model.Value) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = (h ^ v.Hash()) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// indexVersion enters one version's values into the stripe's secondary
// indexes and the global null index. Callers hold the stripe's write
// lock; nullMu is a leaf below it.
func (st *Store) indexVersion(s *stripe, id TupleID, vals []model.Value) {
	if vals == nil {
		return
	}
	for i, v := range vals {
		s.valIdx[i].add(v.Hash(), id)
		if v.IsNull() {
			st.nullMu.Lock()
			st.nullIdx.add(v.Hash(), id)
			st.nullMu.Unlock()
		}
	}
	s.contentIdx.add(st.contentHash(vals), id)
}

// carries reports whether some version of the tuple has values that
// satisfy has.
func (tr *tupleRec) carries(has func(vals []model.Value) bool) bool {
	for i := range tr.versions {
		if vals := tr.versions[i].vals; vals != nil && has(vals) {
			return true
		}
	}
	return false
}

// unindexVersion takes out of the indexes what a version that has just
// left the chain of tuple id, tr, put there and no remaining version of
// the tuple still carries. Callers hold the stripe's write lock.
func (st *Store) unindexVersion(s *stripe, id TupleID, tr *tupleRec, vals []model.Value) {
	if vals == nil {
		return
	}
	for i, v := range vals {
		if !tr.carries(func(w []model.Value) bool { return w[i] == v }) {
			s.valIdx[i].remove(v.Hash(), id)
		}
		if v.IsNull() && !tr.carries(func(w []model.Value) bool { return slices.Contains(w, v) }) {
			st.nullMu.Lock()
			st.nullIdx.remove(v.Hash(), id)
			st.nullMu.Unlock()
		}
	}
	// Keyed by hash, so it is the hash another version has to share.
	h := st.contentHash(vals)
	if !tr.carries(func(w []model.Value) bool { return st.contentHash(w) == h }) {
		s.contentIdx.remove(h, id)
	}
}

// isCommitted reports a writer's commit status. Safe under any stripe
// lock (commitMu is a leaf).
func (st *Store) isCommitted(writer int) bool {
	st.commitMu.RLock()
	defer st.commitMu.RUnlock()
	return st.committed[writer]
}

// insertVersion splices a version into the chain of tuple id, keeping
// the chain sorted by (writer, seq), and maintains the stripe indexes
// and published sequence number. Callers hold the stripe's write lock.
// Logging and writer accounting are the caller's concern: live writes
// go through addVersion, recovery replay applies versions directly.
func (st *Store) insertVersion(s *stripe, id TupleID, rec *tupleRec, v version) {
	i := sort.Search(len(rec.versions), func(i int) bool {
		w := rec.versions[i]
		return w.writer > v.writer || (w.writer == v.writer && w.seq > v.seq)
	})
	rec.versions = append(rec.versions, version{})
	copy(rec.versions[i+1:], rec.versions[i:])
	rec.versions[i] = v
	st.indexVersion(s, id, v.vals)
	s.seq.Store(v.seq)
}

// addVersion appends a version to a tuple's chain, keeping the chain
// sorted by (writer, seq), and maintains indexes and logs. Callers
// hold the stripe's write lock. Only uncommitted writers log: the one
// writer that writes while committed is writer 0, the initial load,
// which never commits through a batch and never aborts, so nothing
// would read its log.
func (st *Store) addVersion(s *stripe, rec *tupleRec, v version, logRec WriteRec) {
	st.insertVersion(s, logRec.ID, rec, v)
	if st.isCommitted(v.writer) {
		st.trimOrDefer(s, logRec.ID, rec)
		return
	}
	s.logs[v.writer] = append(s.logs[v.writer], logRec)
	if len(s.logs[v.writer]) == 1 {
		st.commitMu.Lock()
		lw := st.writerStripes[v.writer]
		if len(lw.stripes) == 0 {
			lw.first = v.seq
		}
		lw.stripes = append(lw.stripes, s.idx)
		st.writerStripes[v.writer] = lw
		st.commitMu.Unlock()
	}
}

// liveWriter is an uncommitted writer's entry in writerStripes.
type liveWriter struct {
	first   int64 // sequence number of the writer's first live write
	stripes []int // stripes holding its live writes, in join order
}

// lockStripes write-locks the listed stripes, which must be in
// ascending index order; unlockStripes releases them.
func (st *Store) lockStripes(idxs []int) {
	for _, i := range idxs {
		st.byIdx[i].lock()
	}
}

func (st *Store) unlockStripes(idxs []int) {
	for _, i := range idxs {
		st.byIdx[i].unlock()
	}
}

// CurrentSeq returns the sequence number of the most recent write;
// reads record it so conflict checks can reconstruct read-time state.
func (st *Store) CurrentSeq() int64 {
	return st.nextSeq.Load()
}

// Insert inserts a tuple on behalf of writer. Set semantics apply: if
// a tuple with identical content is already visible to the writer, the
// insert is a no-op and the existing tuple's ID is returned with
// inserted == false. The returned WriteRec is meaningful only when
// inserted is true.
func (st *Store) Insert(writer int, t model.Tuple) (id TupleID, rec WriteRec, inserted bool, err error) {
	if err := st.schema.CheckTuple(t); err != nil {
		return 0, WriteRec{}, false, err
	}
	st.noteNulls(t.Vals)
	s := st.stripes[t.Rel]
	s.lock()
	defer s.unlock()
	return st.insertLocked(s, writer, t)
}

func (st *Store) insertLocked(s *stripe, writer int, t model.Tuple) (id TupleID, rec WriteRec, inserted bool, err error) {
	// Visible-duplicate check.
	snap := st.snapLocked(writer)
	var one [1]TupleID
	for _, dupID := range s.contentIdx.get(st.contentHash(t.Vals), &one) {
		if vals, ok := snap.getInStripe(s, dupID); ok && (model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			return dupID, WriteRec{}, false, nil
		}
	}
	id = s.newID()
	seq := st.nextSeq.Add(1)
	vals := append([]model.Value(nil), t.Vals...)
	tr := new(tupleRec)
	s.tuples[id] = tr
	s.ids = addID(s.ids, id)
	w := WriteRec{Writer: writer, Seq: seq, ID: id, Rel: t.Rel, Op: OpInsert, After: vals}
	st.addVersion(s, tr, version{writer: writer, seq: seq, vals: vals}, w)
	return id, w, true, nil
}

// Delete tombstones the tuple with the given ID if it is visible to
// the writer. It returns ok == false (and no error) when the tuple is
// not visible, which callers treat as "nothing to delete".
func (st *Store) Delete(writer int, id TupleID) (rec WriteRec, ok bool, err error) {
	s := st.stripeOf(id)
	if s == nil {
		return WriteRec{}, false, nil
	}
	s.lock()
	defer s.unlock()
	return st.deleteLocked(s, writer, id)
}

func (st *Store) deleteLocked(s *stripe, writer int, id TupleID) (rec WriteRec, ok bool, err error) {
	tr, exists := s.tuples[id]
	if !exists {
		return WriteRec{}, false, nil
	}
	v := st.snapLocked(writer).versionOf(tr, s.rel)
	if v == nil || v.deleted {
		return WriteRec{}, false, nil
	}
	seq := st.nextSeq.Add(1)
	w := WriteRec{Writer: writer, Seq: seq, ID: id, Rel: s.rel, Op: OpDelete, Before: v.vals}
	st.addVersion(s, tr, version{writer: writer, seq: seq, deleted: true}, w)
	return w, true, nil
}

// DeleteContent tombstones every tuple visible to the writer whose
// content equals t. Under set semantics this is the natural "remove
// this fact" operation. It returns the write records, which may be
// empty when the fact is absent.
func (st *Store) DeleteContent(writer int, t model.Tuple) ([]WriteRec, error) {
	if err := st.schema.CheckTuple(t); err != nil {
		return nil, err
	}
	s := st.stripes[t.Rel]
	s.lock()
	defer s.unlock()
	snap := st.snapLocked(writer)
	var ids []TupleID
	var one [1]TupleID
	for _, id := range s.contentIdx.get(st.contentHash(t.Vals), &one) {
		if vals, ok := snap.getInStripe(s, id); ok && (model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			ids = append(ids, id)
		}
	}
	var out []WriteRec
	for _, id := range ids {
		rec, ok, err := st.deleteLocked(s, writer, id)
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, rec)
		}
	}
	return out, nil
}

// ReplaceNull performs a global null-replacement on behalf of writer:
// every occurrence of the labeled null x in tuples visible to the
// writer is replaced by the value to (a constant for the paper's
// null-replacement user operation, or another null during frontier
// unification). It returns one modify record per rewritten tuple.
//
// The replacement spans relations, so it holds every stripe lock for
// its duration — the one mutator that still serializes store-wide.
func (st *Store) ReplaceNull(writer int, x, to model.Value) ([]WriteRec, error) {
	if !x.IsNull() {
		return nil, fmt.Errorf("storage: ReplaceNull target %s is not a labeled null", x)
	}
	if x == to {
		return nil, fmt.Errorf("storage: ReplaceNull of %s with itself", x)
	}
	if to.IsNull() {
		st.nulls.SetFloor(to.NullID())
	}
	st.lockAll()
	defer st.unlockAll()
	snap := st.snapLocked(writer)
	// Collect affected tuples first, in ascending tuple-ID order:
	// rewriting mutates the null index.
	type hit struct {
		id   TupleID
		vals []model.Value
	}
	var hits []hit
	for _, id := range snap.TuplesWithNull(x) {
		vals, ok := snap.getLocked(id)
		if !ok {
			continue
		}
		hits = append(hits, hit{id, vals})
	}
	sub := model.Subst{x: to}
	out := make([]WriteRec, 0, len(hits))
	var one [1]TupleID
	for _, h := range hits {
		s := st.stripeOf(h.id)
		tr := s.tuples[h.id]
		newVals := sub.Apply(h.vals)
		// Set-semantics collapse (§2.2 "collapsed into one"): if the
		// rewritten content is already carried by another visible tuple,
		// this copy disappears instead of becoming a duplicate. The
		// check runs against the live store so that two tuples rewritten
		// to the same content within one replacement also collapse.
		collapsed := false
		for _, dupID := range s.contentIdx.get(st.contentHash(newVals), &one) {
			if dupID == h.id {
				continue
			}
			if vals, ok := snap.getInStripe(s, dupID); ok && (model.Tuple{Rel: s.rel, Vals: vals}).Equal(model.Tuple{Rel: s.rel, Vals: newVals}) {
				collapsed = true
				break
			}
		}
		seq := st.nextSeq.Add(1)
		if collapsed {
			w := WriteRec{Writer: writer, Seq: seq, ID: h.id, Rel: s.rel, Op: OpDelete,
				Before: h.vals}
			st.addVersion(s, tr, version{writer: writer, seq: seq, deleted: true}, w)
			out = append(out, w)
			continue
		}
		w := WriteRec{Writer: writer, Seq: seq, ID: h.id, Rel: s.rel, Op: OpModify,
			Before: h.vals, After: newVals}
		st.addVersion(s, tr, version{writer: writer, seq: seq, vals: newVals}, w)
		out = append(out, w)
	}
	return out, nil
}

// Load inserts a tuple as part of the committed initial database
// (writer 0). It is a convenience for bootstrap and tests.
func (st *Store) Load(t model.Tuple) (TupleID, error) {
	id, _, _, err := st.Insert(0, t)
	return id, err
}

// Abort removes every version written by the given writer, restoring
// the store to the state it would have without that writer, and
// discards its log. Cascading aborts of updates that read the
// writer's data are the concurrency-control layer's responsibility.
func (st *Store) Abort(writer int) {
	if writer == 0 {
		panic("storage: cannot abort the initial load")
	}
	// Detach the writer's stripe set and write-lock it in ascending
	// order.
	st.commitMu.Lock()
	stripes := st.writerStripes[writer].stripes
	delete(st.writerStripes, writer)
	st.commitMu.Unlock()
	sort.Ints(stripes)
	st.lockStripes(stripes)
	for _, si := range stripes {
		s := st.byIdx[si]
		log := s.logs[writer]
		for i := len(log) - 1; i >= 0; i-- {
			rec := log[i]
			tr, ok := s.tuples[rec.ID]
			if !ok {
				continue
			}
			for j := len(tr.versions) - 1; j >= 0; j-- {
				v := tr.versions[j]
				if v.writer == writer && v.seq == rec.Seq {
					tr.versions = append(tr.versions[:j], tr.versions[j+1:]...)
					st.unindexVersion(s, rec.ID, tr, v.vals)
					break
				}
			}
			if len(tr.versions) == 0 {
				delete(s.tuples, rec.ID)
				s.ids = removeID(s.ids, rec.ID)
			}
		}
		delete(s.logs, writer)
	}
	st.unlockStripes(stripes)
	st.settle()
}

// Commit marks a writer's versions as permanent and retires its write
// log; a committed writer can no longer abort. With a durability hook
// installed (SetCommitHook) the call blocks until the commit is
// durable; see CommitBatch for the error contract.
func (st *Store) Commit(writer int) error {
	return st.CommitBatch([]int{writer})
}

// CommitBatch commits a group of writers in one lock round over the
// stripes they wrote — the group-commit primitive the scheduler's
// commit frontier uses to drain a whole terminated prefix at once —
// and, on a durable store, blocks until the batch's log sync lands. It
// is CommitBatchAsync followed by the ack wait; an ack failure means
// the batch is committed in memory but its durability could not be
// confirmed (the backend refuses further commits until reopened).
func (st *Store) CommitBatch(writers []int) error {
	ack, err := st.CommitBatchAsync(writers)
	if err != nil {
		return err
	}
	if ack != nil {
		return ack()
	}
	return nil
}

// CommitBatchAsync is the pipelined commit: logs and per-relation
// writer counts are retired for every writer in the batch and the
// batch's write records are handed to the durability hook — appended
// to the log, one call per commit batch — all under the write locks of
// the stripes the batch wrote, but the locks are released *before* any
// fsync. The returned ack (nil on in-memory stores) blocks until the
// covering sync lands; callers must not report the commit as durable
// before the ack resolves.
//
// A hook error vetoes the commit: nothing was appended past the
// failure, the store is unchanged, and the error is returned — the
// pre-pipeline semantics. Once the hook accepts the append the commit
// takes effect in memory unconditionally; only acknowledgment waits
// for the disk.
//
// The commit builds nothing for committed-state readers; it advances
// the batch count, which Epoch pairs its cut with.
func (st *Store) CommitBatchAsync(writers []int) (CommitAck, error) {
	if len(writers) == 0 {
		return nil, nil
	}
	if st.commitGuard != nil {
		// Fast rejection before any stripe lock is taken: a durability
		// backend that cannot accept writes (degraded to read-only,
		// poisoned) says so here, so doomed commits never contend with
		// the readers the store is still serving. The hook re-checks
		// under its own lock; the guard is advisory.
		if err := st.commitGuard(); err != nil {
			return nil, err
		}
	}
	st.batchMu.Lock()
	defer st.batchMu.Unlock()
	stripes, wrote := st.lockBatch(writers)
	defer st.unlockStripes(stripes)
	var ack CommitAck
	if st.commitHook != nil && wrote {
		// A batch with no live writes in this store has nothing to make
		// durable — recovery replays write records, not commit-status
		// flips — so the log append is skipped.
		a, err := st.commitHook(sortedWriters(writers), st.batchWrites(stripes, writers))
		if err != nil {
			return nil, err
		}
		ack = a
	}
	st.commitMu.Lock()
	for _, w := range writers {
		st.committed[w] = true
		delete(st.writerStripes, w)
	}
	st.commitMu.Unlock()
	if len(stripes) == 0 {
		return ack, nil
	}
	h := st.horizon()
	for _, si := range stripes {
		st.trimStripe(st.byIdx[si], writers, h)
	}
	if wrote {
		st.commits.Add(1)
	}
	return ack, nil
}

// lockBatch write-locks, in ascending order, the stripes the batch's
// writers wrote together with the stripes holding deferred trims, and
// returns their indexes in the store's reusable buffer; wrote reports
// whether the batch has live writes here. Callers hold batchMu.
func (st *Store) lockBatch(writers []int) (stripes []int, wrote bool) {
	stripes = st.stripeScratch[:0]
	st.commitMu.RLock()
	for _, w := range writers {
		stripes = append(stripes, st.writerStripes[w].stripes...)
	}
	wrote = len(stripes) > 0
	stripes = append(stripes, st.pendingIn...)
	st.commitMu.RUnlock()
	slices.Sort(stripes)
	stripes = slices.Compact(stripes)
	st.stripeScratch = stripes
	st.lockStripes(stripes)
	return stripes, wrote
}

// Committed reports whether the writer has committed.
func (st *Store) Committed(writer int) bool {
	return st.isCommitted(writer)
}

// anyWriter makes appendLogs scan every uncommitted writer's log.
const anyWriter = -1

// appendLogs is the one scan of the live write log: it appends to dst
// the log records in relation rel ("" = every relation) of writer, or
// of every uncommitted writer when writer is anyWriter, and returns the
// extended slice. Records come in no particular order. The scanned
// stripes are read-locked together, so a scan of every relation is
// one consistent cut.
func (st *Store) appendLogs(dst []WriteRec, rel string, writer int) []WriteRec {
	stripes := st.byIdx
	if rel != "" {
		s := st.stripes[rel]
		if s == nil {
			return dst
		}
		stripes = st.byIdx[s.idx : s.idx+1]
	}
	for _, s := range stripes {
		s.rlock()
	}
	for _, s := range stripes {
		if writer != anyWriter {
			dst = append(dst, s.logs[writer]...)
			continue
		}
		for _, log := range s.logs {
			dst = append(dst, log...)
		}
	}
	for _, s := range stripes {
		s.runlock()
	}
	return dst
}

// AppendUncommittedWrites appends to dst the live writes of every
// uncommitted writer into rel — into every relation when rel is "" —
// in no particular order, and returns the extended slice. It is the
// dependency trackers' scan (§5.1): they reuse one buffer per
// goroutine and treat the result as a set.
func (st *Store) AppendUncommittedWrites(dst []WriteRec, rel string) []WriteRec {
	return st.appendLogs(dst, rel, anyWriter)
}

// bySeq orders write records by sequence number.
func bySeq(a, b WriteRec) int { return cmp.Compare(a.Seq, b.Seq) }

// sortedBySeq sorts recs by sequence number in place and returns it.
func sortedBySeq(recs []WriteRec) []WriteRec {
	slices.SortFunc(recs, bySeq)
	return recs
}

// writersIn returns the distinct writers of recs, ascending.
func writersIn(recs []WriteRec) []int {
	out := make([]int, len(recs))
	for i := range recs {
		out[i] = recs[i].Writer
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// WritesOf returns the write log of an uncommitted writer in sequence
// order.
func (st *Store) WritesOf(writer int) []WriteRec {
	return sortedBySeq(st.appendLogs(nil, "", writer))
}

// UncommittedWrites returns all writes by uncommitted writers, sorted
// by sequence number.
func (st *Store) UncommittedWrites() []WriteRec {
	return sortedBySeq(st.appendLogs(nil, "", anyWriter))
}

// UncommittedWritesOf returns the writes by uncommitted writers into
// one relation, sorted by sequence number.
func (st *Store) UncommittedWritesOf(rel string) []WriteRec {
	return sortedBySeq(st.appendLogs(nil, rel, anyWriter))
}

// UncommittedWritersOf returns the uncommitted writers with live
// writes into rel, sorted ascending — the set COARSE charges a
// violation-query read dependency against (§5.1.1).
func (st *Store) UncommittedWritersOf(rel string) []int {
	return writersIn(st.appendLogs(nil, rel, anyWriter))
}

// Snap returns a read view of the store at the given reader priority.
// The snapshot locks internally per call and is safe for concurrent
// use.
func (st *Store) Snap(reader int) *Snapshot {
	return &Snapshot{store: st, reader: reader}
}

// SnapInto implements Backend.
func (st *Store) SnapInto(dst *Snapshot, reader int) {
	*dst = Snapshot{store: st, reader: reader}
}

// snapLocked returns a read view for use by code already holding the
// locks its calls will need (a single stripe for relation-local use,
// or every stripe for cross-relation operations).
func (st *Store) snapLocked(reader int) *Snapshot {
	return &Snapshot{store: st, reader: reader, noLock: true}
}

// Stats summarizes store contents for diagnostics.
type Stats struct {
	Tuples   int // logical tuples with at least one version
	Versions int
	Visible  int // tuples visible to the all-seeing reader
}

// Stats computes summary statistics. The Visible count uses the
// highest possible reader (every writer included).
func (st *Store) Stats() Stats {
	st.rlockAll()
	defer st.runlockAll()
	var s Stats
	snap := st.snapLocked(maxReader)
	for _, sp := range st.byIdx {
		s.Tuples += len(sp.tuples)
		for _, tr := range sp.tuples {
			s.Versions += len(tr.versions)
			if v := snap.versionOf(tr, sp.rel); v != nil && !v.deleted {
				s.Visible++
			}
		}
	}
	return s
}

// Dump renders the database visible to reader as sorted text, one
// tuple per line. Intended for examples, debugging, and golden tests.
func (st *Store) Dump(reader int) string {
	st.rlockAll()
	defer st.runlockAll()
	snap := st.snapLocked(reader)
	var lines []string
	for _, rel := range st.relsByIdx {
		snap.scanStripe(st.stripes[rel], func(id TupleID, vals []model.Value) bool {
			lines = append(lines, model.Tuple{Rel: rel, Vals: vals}.String())
			return true
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
