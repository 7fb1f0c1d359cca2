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
// # The tuple table
//
// A relation's stripe keeps its tuples in fixed pages of pageSize
// members, listed in ID order by a directory. A page holds the members'
// IDs, ascending, and beside each ID the tuple's only version. A
// version is three words — writer, sequence number and a pointer to the
// tuple's values, as many as the relation's arity — and a nil pointer
// is a tombstone. At rest almost every tuple has one version and costs
// its value array and its page slot; a tuple with more holds a marker
// in its slot and its chain in the stripe's overflow map, and goes back
// to its slot when a commit, trim or abort leaves it one version.
//
// A new tuple's ID is the stripe's largest, so an insert appends to the
// last page or opens a new one, and nothing is copied to grow. Only an
// ID that arrives out of order, as in redo replay, splits a full page.
// A removal shifts the members of its own page, and two neighbouring
// pages merge when their members fit in one, so any two neighbours hold
// more than pageSize members: P pages hold at least (pageSize+1)·⌊P/2⌋
// members, over half of their slots. A lookup by ID is a binary search
// of the directory, then of a page. Pages and the overflow map change
// in place under the store's write lock, so no position or pointer into
// them outlives a mutation of the stripe; the value arrays never
// change.
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
//     a read sequence u captures (CurrentSeq at read time) lies at or
//     above first(u) - 1, so a ceiling or a window built from it
//     admits v' and never falls through to v.
//
// Trimming drops the versions below the newest committed one together
// with their index entries (unindexVersion) and deletes a tuple whose
// only version left is a committed tombstone from the tuple table and
// every index. A commit batch trims the tuples in its writers' logs;
// what the horizon does not yet release goes on the stripe's pending
// list, which a later batch drains or the abort of the last live
// writer settles.
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
// tuples no longer appear in it. So a relation mints at most maxLocalID
// (2^31-1) IDs over its life, the most a stripe index's 32-bit slot
// can name; past that, Insert, redo replay and a checkpoint restore fail
// with ErrIDSpaceExhausted and change nothing.
//
// # Locking
//
// One RWMutex, Store.mu, guards every table of the store: each
// relation's stripe (its tuples, indexes and slice of the per-writer
// logs), the null index, the live-writer entries and the pending and
// free lists. Every write, commit batch and abort holds it exclusively
// for the whole call; every read holds it shared for the whole call, so
// each exported operation is atomic, the ones that span relations
// (TuplesWithNull, VisibleFacts, the write-log scan over every
// relation, Epoch, Stats, Dump) included. cc.Scheduler steps every
// update on the goroutine that called Run; the one reader beside it is
// the checkpointer's committed cut (Epoch).
//
// The lock is never taken twice on one goroutine: a read lock taken
// again deadlocks once a writer queues between the two. So code that
// already holds it reads through snapLocked, whose snapshot takes no
// lock, and helpers such as appendNullIDs take none; and a callback the
// store runs under its lock (a probe's keep, a scan's fn, a log scan's
// match) must not call back into the store.
//
// The sequence counter is atomic so that CurrentSeq reads it without
// the lock; numbers are assigned under the write lock, so the order of
// sequence numbers is the order in which writes landed. A TupleID encodes its stripe
// index in the high bits, so resolving an ID to its relation requires
// no shared lookup structure. Multi-operation protocols (a chase step's
// write-then-validate sequence) rely on the concurrency-control layer
// running them one at a time.
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"youtopia/internal/model"
)

// TupleID identifies a logical tuple across its versions. The high
// bits carry the stripe (relation) index, the low localIDBits the
// per-stripe allocation counter, so the owning stripe is recoverable
// from the ID alone and IDs within one relation ascend in creation
// order. The counter runs from 1 to maxLocalID.
type TupleID int64

// localIDBits is the width of the per-stripe counter inside a TupleID.
const localIDBits = 40

// maxLocalID is the largest per-stripe counter: a stripe index stores a
// member as its counter in a uint32 slot (postings).
const maxLocalID = 1<<31 - 1

// ErrIDSpaceExhausted is returned, wrapped, by a write, redo record or
// checkpoint that would take a relation's tuple-ID counter past
// maxLocalID; the store is left unchanged.
var ErrIDSpaceExhausted = errors.New("storage: tuple-ID space exhausted")

// checkLocalID fails with ErrIDSpaceExhausted when id's per-stripe
// counter lies beyond maxLocalID, and fails when it is 0, which no
// minted ID has and a free page slot holds.
func checkLocalID(rel string, id TupleID) error {
	switch local := int64(id) & (1<<localIDBits - 1); {
	case local > maxLocalID:
		return fmt.Errorf("%w: tuple ID %d of %s has counter %d, above %d", ErrIDSpaceExhausted, id, rel, local, maxLocalID)
	case local == 0:
		return fmt.Errorf("storage: tuple ID %d of %s has counter 0", id, rel)
	}
	return nil
}

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

// version is one entry of a tuple's version chain: three words. vals
// points at the first of the tuple's values, whose number is the
// relation's arity (stripe.valsOf); nil marks a tombstone, which no
// live version can be, as every relation has at least one attribute.
// A value array is never changed once a version points at it.
type version struct {
	writer int
	seq    int64
	vals   *model.Value
}

// newVersion returns writer's version seq of a tuple with values vals,
// which hold exactly the relation's arity of values; nil makes a
// tombstone.
func newVersion(writer int, seq int64, vals []model.Value) version {
	return version{writer: writer, seq: seq, vals: unsafe.SliceData(vals)}
}

// chained is the writer of the marker a member's slot holds while its
// chain has two or more versions; the chain is then in stripe.chains.
const chained = -1

// pageSize is the number of members a page of the tuple table holds.
// The benchmark's relations hold tens to a hundred or so members, and a
// relation's last page is the one that is not full: at 16 its slack is
// at most 15 members, below what regrowing one array per relation left.
const pageSize = 16

// page is one fixed block of a stripe's tuple table: 512 bytes, one
// object. Its members come first, in ascending ID order, recs[i] the
// record of ids[i]; a slot past them holds ID 0, which no member has
// (a TupleID's counter starts at 1), and a zero record, so a page keeps
// no value array reachable that left it.
type page struct {
	ids  [pageSize]TupleID
	recs [pageSize]version
}

// len returns the number of members of the page.
func (pg *page) len() int { return pg.search(math.MaxInt64) }

// search returns the slot of member id on the page, or the slot it
// would take: the first holding a larger ID or none.
func (pg *page) search(id TupleID) int {
	lo, hi := 0, pageSize
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); pg.ids[m] != 0 && pg.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pos is a member's place in the tuple table: slot i of the page pg of
// the directory.
type pos struct{ pg, i int }

// stripe is the per-relation slice of the store: one relation's
// tuples, secondary indexes, and slice of the per-writer logs. Store.mu
// guards every field but seq.
//
// pages is the tuple table, its directory in ID order (see the package
// comment). A member's slot holds its only version or, when the tuple
// has two or more, a marker (writer chained) whose chain, sorted
// ascending by (writer, seq), is chains[id]. A chain that a commit, a
// trim or an abort brings back to one version returns to its slot.
// Pages and chains are changed in place under the write lock, as the
// index pages are (see postings), so a pos, a pointer into a page or
// chains, or a chain slice does not outlive the lock it was read under:
// code looks the tuple up again by ID after any insert, removal or
// trim.
type stripe struct {
	rel string
	idx int

	nextLocal int64
	pages     []*page
	count     int // members of the relation, visible or not
	chains    map[TupleID][]version

	// valIdx[col] lists under key(value.Hash()) the tuples with a version
	// carrying the constant value, or another constant whose key is that
	// one, in that column; contentIdx lists under key(contentHash(vals))
	// those with a version whose content has that key. Each is one sorted
	// run of (key, stripe-local counter) entries in fixed 256-byte pages
	// (postings). A labeled null is listed in the store's nullIdx only,
	// under its full Hash. A key is a 32-bit fold, so several values or
	// contents may share it: both indexes over-approximate, and readers
	// verify candidates against the values themselves. Keys are hashes so
	// that the pages hold no pointers for the collector to trace. A
	// constant hashes by its address (model.Value.Hash), so a tuple stays
	// listed under a key exactly while one of its versions carries a
	// value with that key, hashed from the value the version holds
	// (unindexVersion): an index never outlives the values it hashed.
	valIdx     []postings[uint32]
	contentIdx postings[uint32]

	// logs holds this relation's live writes per uncommitted writer;
	// a writer's entry goes when it commits or aborts.
	logs map[int][]WriteRec

	// pending lists tuples whose committed history the horizon did not
	// yet release when a commit (or a writer-0 write) made it garbage; a
	// later batch drains it. It may repeat an ID or name a tuple that is
	// gone. The stripe is in Store.pendingIn exactly while it is
	// non-empty. See horizon.go.
	pending []TupleID
}

// base is the stripe's bits of every TupleID it mints.
func (s *stripe) base() TupleID { return TupleID(s.idx) << localIDBits }

// newID mints the next tuple ID of the stripe, or fails with
// ErrIDSpaceExhausted, changing nothing, once the counter is at
// maxLocalID. Callers hold the write lock.
func (s *stripe) newID() (TupleID, error) {
	if s.nextLocal >= maxLocalID {
		return 0, fmt.Errorf("%w: %s has minted %d tuple IDs", ErrIDSpaceExhausted, s.rel, s.nextLocal)
	}
	s.nextLocal++
	return s.base() | TupleID(s.nextLocal), nil
}

// find returns the position of tuple id, an ID of this stripe, in the
// tuple table, or where it would go, and whether it is a member: a
// binary search of the directory for the last page starting at or below
// id (the first page when none does), then of that page. Callers hold
// the lock.
func (s *stripe) find(id TupleID) (pos, bool) {
	lo, hi := 0, len(s.pages)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.pages[m].ids[0] <= id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		if len(s.pages) == 0 {
			return pos{}, false
		}
		lo = 1
	}
	pg := s.pages[lo-1]
	i := pg.search(id)
	return pos{lo - 1, i}, i < pageSize && pg.ids[i] == id
}

// members yields the position and ID of every member, in ascending ID
// order. Callers hold the lock and change nothing while it runs.
func (s *stripe) members() iter.Seq2[pos, TupleID] {
	return func(yield func(pos, TupleID) bool) {
		for k, pg := range s.pages {
			for i, id := range pg.ids {
				if id == 0 {
					break
				}
				if !yield(pos{k, i}, id) {
					return
				}
			}
		}
	}
}

// at returns the page and slot of position p.
func (s *stripe) at(p pos) (*page, int) { return s.pages[p.pg], p.i }

// chain returns the versions of the member at position p, ascending by
// (writer, seq). The slice aliases its page or chains: callers read it
// under the lock and drop it before the stripe next changes.
func (s *stripe) chain(p pos) []version {
	pg, i := s.at(p)
	if pg.recs[i].writer == chained {
		return s.chains[pg.ids[i]]
	}
	return pg.recs[i : i+1]
}

// setChain makes vs, of one version or more, the chain of the member at
// position p: a single version goes into its slot, a longer chain into
// chains behind a marker. A chain that leaves chains goes on the
// store's free list, so callers are done reading it. Callers hold the
// write lock.
func (st *Store) setChain(s *stripe, p pos, vs []version) {
	pg, i := s.at(p)
	id := pg.ids[i]
	if len(vs) == 1 {
		v := vs[0]
		if pg.recs[i].writer == chained {
			st.freeChain(s, id)
		}
		pg.recs[i] = v
		return
	}
	if s.chains == nil {
		s.chains = make(map[TupleID][]version)
	}
	pg.recs[i] = version{writer: chained}
	s.chains[id] = vs
}

// freeChain takes the chain of tuple id out of chains, keeping its
// array, cleared, on the free list within its bounds. Callers hold the
// write lock and are done reading the chain.
func (st *Store) freeChain(s *stripe, id TupleID) {
	vs := s.chains[id]
	delete(s.chains, id)
	if len(st.chainFree) < maxFreeLogs && cap(vs) <= maxFreeLogCap {
		clear(vs[:cap(vs)])
		st.chainFree = append(st.chainFree, vs[:0])
	}
}

// newChain returns an empty array for a chain of two or more versions,
// from the free list when it holds one.
func (st *Store) newChain() []version {
	if vs, ok := pop(&st.chainFree); ok {
		return vs
	}
	return make([]version, 0, 2)
}

// pop takes the last entry off a free list, or reports that it is
// empty.
func pop[T any](free *[]T) (T, bool) {
	var zero T
	n := len(*free)
	if n == 0 {
		return zero, false
	}
	v := (*free)[n-1]
	(*free)[n-1] = zero
	*free = (*free)[:n-1]
	return v, true
}

// insert puts id with the version v at slot i of a page holding n
// members, fewer than pageSize, shifting the members from i on.
func (pg *page) insert(i, n int, id TupleID, v version) {
	copy(pg.ids[i+1:n+1], pg.ids[i:n])
	copy(pg.recs[i+1:n+1], pg.recs[i:n])
	pg.ids[i], pg.recs[i] = id, v
}

// addMember makes id, which is not a member and would sit at position
// p, one with the single version v. An ID past the last member goes at
// the end of the last page, or on a new page when that one is full.
// Any other insert into a full page splits it into halves, which then
// merge with their outer neighbours where they fit. Callers hold the
// write lock.
func (st *Store) addMember(s *stripe, p pos, id TupleID, v version) {
	s.count++
	if len(s.pages) == 0 {
		s.pages = append(s.pages, st.newPage())
	}
	pg, i := s.at(p)
	if n := pg.len(); n < pageSize {
		pg.insert(i, n, id, v)
		return
	}
	right := st.newPage()
	if i == pageSize && p.pg == len(s.pages)-1 {
		right.ids[0], right.recs[0] = id, v
		s.pages = append(s.pages, right)
		return
	}
	const half = pageSize / 2
	copy(right.ids[:], pg.ids[half:])
	copy(right.recs[:], pg.recs[half:])
	clear(pg.ids[half:])
	clear(pg.recs[half:])
	s.pages = slices.Insert(s.pages, p.pg+1, right)
	if i > half {
		right.insert(i-half, half, id, v)
	} else {
		pg.insert(i, half, id, v)
	}
	st.mergeNext(s, p.pg+1)
	st.mergeNext(s, p.pg-1)
}

// removeMember takes the member at position p out of the stripe, with
// its chain. Its page leaves the directory when emptied, or merges with
// a neighbour that it now fits in one page with. Callers hold the write
// lock.
func (st *Store) removeMember(s *stripe, p pos) {
	pg, i := s.at(p)
	if pg.recs[i].writer == chained {
		st.freeChain(s, pg.ids[i])
	}
	s.count--
	n := pg.len()
	if n == 1 {
		s.pages = slices.Delete(s.pages, p.pg, p.pg+1)
		st.freePage(pg)
		return
	}
	copy(pg.ids[i:n-1], pg.ids[i+1:n])
	copy(pg.recs[i:n-1], pg.recs[i+1:n])
	pg.ids[n-1], pg.recs[n-1] = 0, version{}
	if !st.mergeNext(s, p.pg-1) {
		st.mergeNext(s, p.pg)
	}
}

// mergeNext moves the members of page k+1 to the end of page k and
// drops page k+1 from the directory when the two fit in one page, and
// reports whether it did.
func (st *Store) mergeNext(s *stripe, k int) bool {
	if k < 0 || k+1 >= len(s.pages) {
		return false
	}
	a, b := s.pages[k], s.pages[k+1]
	na, nb := a.len(), b.len()
	if na+nb > pageSize {
		return false
	}
	copy(a.ids[na:], b.ids[:nb])
	copy(a.recs[na:], b.recs[:nb])
	s.pages = slices.Delete(s.pages, k+1, k+2)
	st.freePage(b)
	return true
}

// freePage keeps a page that left a directory, cleared, on the free
// list within its bound (maxFreeLogs pages, 8 KB), so that a relation
// whose last page empties and fills again, as an aborted insert and
// its retry make it, does not allocate a page each time.
func (st *Store) freePage(pg *page) {
	if len(st.pageFree) < maxFreeLogs {
		*pg = page{}
		st.pageFree = append(st.pageFree, pg)
	}
}

// newPage returns an empty page, from the free list when it holds one.
func (st *Store) newPage() *page {
	if pg, ok := pop(&st.pageFree); ok {
		return pg
	}
	return new(page)
}

// valsOf returns a version's values, nil for a tombstone. The slice is
// the version's own immutable array: it stays valid after the stripe
// changes, and callers must not modify it.
func (s *stripe) valsOf(v *version) []model.Value {
	if v.vals == nil {
		return nil
	}
	return unsafe.Slice(v.vals, len(s.valIdx))
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

	// mu guards every field below and every stripe; see the package
	// comment.
	mu sync.RWMutex

	// nullIdx lists under null.Hash() the tuples with a version
	// containing the labeled null, in any column: the one index a null is
	// listed in. A stripe's members form one sub-run of the null's run,
	// as a TupleID carries its stripe in its high bits (Store.nullRun).
	nullIdx postings[uint64]

	// collideKeys folds every stripe index key to 0; a test seam that
	// turns each probe into a scan of the candidates' values.
	collideKeys bool

	// writerStripes[w] describes uncommitted writer w's live writes in
	// this store: the stripes they are in — a stripe joins with w's
	// first record in its logs — and the sequence number of the first.
	// The entry goes when w commits or aborts. The horizon is computed
	// from these entries.
	writerStripes map[int]liveWriter
	// pendingIn lists the stripes with a non-empty pending list.
	pendingIn []int
	// logFree holds cleared write-log arrays for writers' first writes
	// into a stripe (addVersion pops, retireLogs pushes). An array may
	// be handed to another writer as soon as it is pushed because no
	// reader keeps one: appendLogs and batchWrites copy the records out
	// under the lock. The list is bounded by count (maxFreeLogs)
	// and by array capacity (maxFreeLogCap), so a burst of long logs
	// does not stay reachable. stripesFree does the same for the
	// stripe lists of writerStripes entries: a writer's first write
	// pops one, and its commit or abort (freeStripes) pushes it back.
	// chainFree, within the same bounds, holds the cleared arrays of
	// chains that went back to one version (freeChain), for a tuple's
	// next second version (newChain); no chain slice outlives the lock
	// it was read under. pageFree, within the same count, holds cleared
	// pages that left a tuple table (freePage, newPage); keyPageFree and
	// nullPageFree those that left a stripe index and the null index
	// (postings.freePage).
	logFree      [][]WriteRec
	stripesFree  [][]int
	chainFree    [][]version
	pageFree     []*page
	keyPageFree  []*postPage[uint32]
	nullPageFree []*postPage[uint64]

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

	// stripeScratch and commitScratch are the reusable buffers a commit
	// batch fills: the stripes it trims and the merged write records it
	// hands the hook.
	stripeScratch []int
	commitScratch []WriteRec
	// commits counts the batches with writes committed so far — on a
	// durable store exactly the batches the hook accepted. A batch
	// advances it while still holding the write lock, so a cut taken
	// under the read lock pairs with it (epoch.go).
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

		writerStripes: make(map[int]liveWriter),
	}
	st.nullIdx.free = &st.nullPageFree
	for i, name := range names {
		s := &stripe{
			rel:    name,
			idx:    i,
			valIdx: make([]postings[uint32], schema.Arity(name)),
			logs:   make(map[int][]WriteRec),
		}
		empty := postings[uint32]{base: s.base(), free: &st.keyPageFree}
		s.contentIdx = empty
		for c := range s.valIdx {
			s.valIdx[c] = empty
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

// Schema returns the schema the store was created with.
func (st *Store) Schema() *model.Schema { return st.schema }

// FreshNull mints a labeled null unused anywhere in the store. It is
// safe to call concurrently (the factory is atomic) and takes no lock.
func (st *Store) FreshNull() model.Value { return st.nulls.Fresh() }

// ReserveNullSpace returns a namespace for a chase's minted nulls
// (model.MintedNull) that no earlier reservation returned and no null
// in the store is named in. A reopened store reserves past the nulls
// it recovered, the only ones a reused namespace could collide with.
func (st *Store) ReserveNullSpace() int64 { return st.nulls.Reserve() }

// noteNulls raises the null factory past any null in vals, so loading
// data with explicit or minted nulls cannot collide with fresh ones.
func (st *Store) noteNulls(vals []model.Value) {
	for _, v := range vals {
		st.nulls.Note(v)
	}
}

// contentHash folds a tuple's values into one word, which key folds
// into the content index's key (multiply-xorshift per word; the
// constant is splitmix64's).
func contentHash(vals []model.Value) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = (h ^ v.Hash()) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// key folds a value's Hash or a contentHash into the key of a stripe
// index: the high half of its product with 2^64 over the golden ratio,
// which every bit of h reaches.
func (st *Store) key(h uint64) uint32 {
	if st.collideKeys {
		return 0
	}
	return uint32(h * 0x9e3779b97f4a7c15 >> 32)
}

// contentKey is the content index's key of a tuple's values.
func (st *Store) contentKey(vals []model.Value) uint32 { return st.key(contentHash(vals)) }

// indexVersion enters one version's values into the indexes: each
// constant into its column's stripe index, each labeled null into the
// global null index, and the content into the content index. Callers
// hold the write lock.
func (st *Store) indexVersion(s *stripe, id TupleID, vals []model.Value) {
	if vals == nil {
		return
	}
	for i, v := range vals {
		if v.IsNull() {
			st.nullIdx.add(v.Hash(), id)
		} else {
			s.valIdx[i].add(st.key(v.Hash()), id)
		}
	}
	s.contentIdx.add(st.contentKey(vals), id)
}

// carries reports whether one of the versions vs of a tuple in s has
// values that satisfy has.
func (s *stripe) carries(vs []version, has func(vals []model.Value) bool) bool {
	for i := range vs {
		if vals := s.valsOf(&vs[i]); vals != nil && has(vals) {
			return true
		}
	}
	return false
}

// unindexVersion takes out of the indexes what a version that has just
// left the chain of tuple id put there and none of rest, the versions
// the tuple still has, carries. The stripe indexes are keyed by folds
// that several constants share, so there it is the key another
// version's constant has to share, not the value. Callers hold the
// write lock.
func (st *Store) unindexVersion(s *stripe, id TupleID, rest []version, vals []model.Value) {
	if vals == nil {
		return
	}
	for i, v := range vals {
		if v.IsNull() {
			if !s.carries(rest, func(w []model.Value) bool { return slices.Contains(w, v) }) {
				st.nullIdx.remove(v.Hash(), id)
			}
			continue
		}
		k := st.key(v.Hash())
		if !s.carries(rest, func(w []model.Value) bool { return w[i].IsConst() && st.key(w[i].Hash()) == k }) {
			s.valIdx[i].remove(k, id)
		}
	}
	k := st.contentKey(vals)
	if !s.carries(rest, func(w []model.Value) bool { return st.contentKey(w) == k }) {
		s.contentIdx.remove(k, id)
	}
}

// dropVersion takes the j-th version of the member at position p out
// of its chain and out of the indexes, and the member out of the stripe
// with its last version. Callers hold the write lock.
func (st *Store) dropVersion(s *stripe, p pos, j int) {
	pg, i := s.at(p)
	id, vs := pg.ids[i], s.chain(p)
	vals := s.valsOf(&vs[j])
	if len(vs) == 1 {
		st.removeMember(s, p)
		st.unindexVersion(s, id, nil, vals)
		return
	}
	rest := slices.Delete(vs, j, j+1)
	st.unindexVersion(s, id, rest, vals)
	st.setChain(s, p, rest)
}

// isCommitted reports whether a version's writer has committed: the
// store keeps no commit status, so a writer counts as committed iff it
// is writer 0, the initial load, or has no writerStripes entry. A
// writer with live writes has an entry from its first write on, and a
// commit or an abort deletes it in the same critical section that
// retires or removes the writer's versions. Callers hold the lock.
func (st *Store) isCommitted(writer int) bool {
	if writer == 0 {
		return true
	}
	_, live := st.writerStripes[writer]
	return !live
}

// insertVersion splices a version into the chain of tuple id, keeping
// the chain sorted by (writer, seq) and making id a member if it is not
// one, and maintains the stripe indexes. Callers hold the write lock.
// Logging and writer accounting are the caller's concern: live writes go through addVersion, recovery
// replay applies versions directly.
func (st *Store) insertVersion(s *stripe, id TupleID, v version) {
	if p, ok := s.find(id); !ok {
		st.addMember(s, p, id, v)
	} else {
		vs := s.chain(p)
		j := sort.Search(len(vs), func(j int) bool {
			w := vs[j]
			return w.writer > v.writer || (w.writer == v.writer && w.seq > v.seq)
		})
		if len(vs) == 1 {
			// The slot's version moves into a chain of its own.
			vs = append(st.newChain(), vs[0])
		}
		st.setChain(s, p, slices.Insert(vs, j, v))
	}
	st.indexVersion(s, id, s.valsOf(&v))
}

// addVersion adds a version to the chain of the tuple logRec names, as
// insertVersion does, and maintains indexes and logs. Callers hold the
// write lock. Every writer but writer 0, the initial load,
// logs: writer 0 never commits through a batch and never aborts, so
// nothing would read its log.
func (st *Store) addVersion(s *stripe, v version, logRec WriteRec) {
	st.insertVersion(s, logRec.ID, v)
	if v.writer == 0 {
		st.trimOrDefer(s, logRec.ID)
		return
	}
	log := s.logs[v.writer]
	if len(log) == 0 {
		log, _ = pop(&st.logFree)
		lw := st.writerStripes[v.writer]
		if len(lw.stripes) == 0 {
			lw.first = v.seq
			lw.stripes, _ = pop(&st.stripesFree)
		}
		lw.stripes = append(lw.stripes, s.idx)
		st.writerStripes[v.writer] = lw
	}
	s.logs[v.writer] = append(log, logRec)
}

// Bounds of the store's free lists of write-log arrays and of stripe
// lists (Store.logFree, Store.stripesFree).
const (
	maxFreeLogs   = 16
	maxFreeLogCap = 8
)

// retireLogs drops the writers' logs from the stripes, keeping their
// arrays, cleared, on the free list within its bounds. Callers hold the
// write lock and are done reading the logs.
func (st *Store) retireLogs(stripes, writers []int) {
	for _, si := range stripes {
		s := st.byIdx[si]
		for _, w := range writers {
			log, ok := s.logs[w]
			if !ok {
				continue
			}
			delete(s.logs, w)
			if len(st.logFree) < maxFreeLogs && cap(log) <= maxFreeLogCap {
				clear(log)
				st.logFree = append(st.logFree, log[:0])
			}
		}
	}
}

// freeStripes keeps the array of a stripe list whose writerStripes
// entry went on the free list, within its bounds. Callers hold the
// write lock and are done reading the list.
func (st *Store) freeStripes(stripes []int) {
	if stripes != nil && len(st.stripesFree) < maxFreeLogs && cap(stripes) <= maxFreeLogCap {
		st.stripesFree = append(st.stripesFree, stripes[:0])
	}
}

// liveWriter is an uncommitted writer's entry in writerStripes.
type liveWriter struct {
	first   int64 // sequence number of the writer's first live write
	stripes []int // stripes holding its live writes, in join order
}

// CurrentSeq returns the sequence number of the most recent write or
// abort; reads record it so conflict checks can reconstruct read-time
// state.
func (st *Store) CurrentSeq() int64 {
	return st.nextSeq.Load()
}

// Insert inserts a tuple on behalf of writer. Set semantics apply: if
// a tuple with identical content is already visible to the writer, the
// insert is a no-op and the existing tuple's ID is returned with
// inserted == false. The returned WriteRec is meaningful only when
// inserted is true. A new tuple past its relation's tuple-ID space
// fails with ErrIDSpaceExhausted.
func (st *Store) Insert(writer int, t model.Tuple) (id TupleID, rec WriteRec, inserted bool, err error) {
	if err := st.schema.CheckTuple(t); err != nil {
		return 0, WriteRec{}, false, err
	}
	st.lock()
	defer st.unlock()
	return st.insertLocked(st.stripes[t.Rel], writer, t)
}

func (st *Store) insertLocked(s *stripe, writer int, t model.Tuple) (id TupleID, rec WriteRec, inserted bool, err error) {
	// Visible-duplicate check.
	snap := st.snapLocked(writer)
	var c postCursor[uint32]
	c.run(&s.contentIdx, st.contentKey(t.Vals))
	for dupID, ok := c.next(); ok; dupID, ok = c.next() {
		if vals, ok := snap.getInStripe(s, dupID); ok && (model.Tuple{Rel: t.Rel, Vals: vals}).Equal(t) {
			return dupID, WriteRec{}, false, nil
		}
	}
	if id, err = s.newID(); err != nil {
		return 0, WriteRec{}, false, err
	}
	st.noteNulls(t.Vals)
	seq := st.nextSeq.Add(1)
	vals := append([]model.Value(nil), t.Vals...)
	w := WriteRec{Writer: writer, Seq: seq, ID: id, Rel: t.Rel, Op: OpInsert, After: vals}
	st.addVersion(s, newVersion(writer, seq, vals), w)
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
	st.lock()
	defer st.unlock()
	return st.deleteLocked(s, writer, id)
}

func (st *Store) deleteLocked(s *stripe, writer int, id TupleID) (rec WriteRec, ok bool, err error) {
	before, ok := st.snapLocked(writer).getInStripe(s, id)
	if !ok {
		return WriteRec{}, false, nil
	}
	seq := st.nextSeq.Add(1)
	w := WriteRec{Writer: writer, Seq: seq, ID: id, Rel: s.rel, Op: OpDelete, Before: before}
	st.addVersion(s, newVersion(writer, seq, nil), w)
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
	st.lock()
	defer st.unlock()
	snap := st.snapLocked(writer)
	var ids []TupleID
	var c postCursor[uint32]
	c.run(&s.contentIdx, st.contentKey(t.Vals))
	for id, ok := c.next(); ok; id, ok = c.next() {
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
func (st *Store) ReplaceNull(writer int, x, to model.Value) ([]WriteRec, error) {
	if !x.IsNull() {
		return nil, fmt.Errorf("storage: ReplaceNull target %s is not a labeled null", x)
	}
	if x == to {
		return nil, fmt.Errorf("storage: ReplaceNull of %s with itself", x)
	}
	st.nulls.Note(to)
	st.lock()
	defer st.unlock()
	snap := st.snapLocked(writer)
	// Collect affected tuples first, in ascending tuple-ID order:
	// rewriting mutates the null index.
	type hit struct {
		id   TupleID
		vals []model.Value
	}
	var hits []hit
	for _, id := range snap.TuplesWithNull(x) {
		vals, ok := snap.getInStripe(st.stripeOf(id), id)
		if !ok {
			continue
		}
		hits = append(hits, hit{id, vals})
	}
	sub := model.Subst{x: to}
	out := make([]WriteRec, 0, len(hits))
	var c postCursor[uint32]
	for _, h := range hits {
		s := st.stripeOf(h.id)
		newVals := sub.Apply(h.vals)
		// Set-semantics collapse (§2.2 "collapsed into one"): if the
		// rewritten content is already carried by another visible tuple,
		// this copy disappears instead of becoming a duplicate. The
		// check runs against the live store so that two tuples rewritten
		// to the same content within one replacement also collapse.
		collapsed := false
		c.run(&s.contentIdx, st.contentKey(newVals))
		for dupID, ok := c.next(); ok; dupID, ok = c.next() {
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
			st.addVersion(s, newVersion(writer, seq, nil), w)
			out = append(out, w)
			continue
		}
		w := WriteRec{Writer: writer, Seq: seq, ID: h.id, Rel: s.rel, Op: OpModify,
			Before: h.vals, After: newVals}
		st.addVersion(s, newVersion(writer, seq, newVals), w)
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
// discards its log. An abort that removes versions advances the
// sequence once (CurrentSeq), as a write does: it changes what live
// snapshots see. Cascading aborts of updates that read the writer's
// data are the concurrency-control layer's responsibility.
func (st *Store) Abort(writer int) {
	if writer == 0 {
		panic("storage: cannot abort the initial load")
	}
	st.lock()
	defer st.unlock()
	stripes := st.writerStripes[writer].stripes
	delete(st.writerStripes, writer)
	for _, si := range stripes {
		s := st.byIdx[si]
		log := s.logs[writer]
		for i := len(log) - 1; i >= 0; i-- {
			rec := log[i]
			p, ok := s.find(rec.ID)
			if !ok {
				continue
			}
			vs := s.chain(p)
			for j := len(vs) - 1; j >= 0; j-- {
				if vs[j].writer == writer && vs[j].seq == rec.Seq {
					st.dropVersion(s, p, j)
					break
				}
			}
		}
	}
	st.retireLogs(stripes, []int{writer})
	st.freeStripes(stripes)
	if len(stripes) > 0 {
		st.nextSeq.Add(1)
	}
	st.settle()
}

// Commit marks a writer's versions as permanent and retires its write
// log; a committed writer can no longer abort. With a durability hook
// installed (SetCommitHook) the call blocks until the commit is
// durable; see CommitBatch for the error contract.
func (st *Store) Commit(writer int) error {
	return st.CommitBatch([]int{writer})
}

// CommitBatch commits a group of writers in one critical section —
// the group-commit primitive the scheduler's commit frontier uses to
// drain a whole terminated prefix at once — and, on a durable store,
// blocks until the batch's log sync lands. It is CommitBatchAsync
// followed by the ack wait; an ack failure means the batch is committed
// in memory but its durability could not be confirmed (the backend
// refuses further commits until reopened).
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

// CommitBatchAsync is the commit that defers durability: logs and
// per-relation writer counts are retired for every writer in the batch
// and the batch's write records are handed to the durability hook —
// appended to the log, one call per commit batch — all under the
// store's write lock, but the lock is released *before* any fsync. The
// returned ack (nil on in-memory stores) blocks until a covering sync
// lands, running it in the calling goroutine when none is in flight;
// callers must not report the commit as durable before the ack
// resolves.
//
// A hook error vetoes the commit: nothing was appended past the
// failure, the store is unchanged, and the error is returned. Once the
// hook accepts the append the commit takes effect in memory
// unconditionally; only acknowledgment waits for the disk.
//
// The commit builds nothing for committed-state readers; it advances
// the batch count, which Epoch pairs its cut with.
func (st *Store) CommitBatchAsync(writers []int) (CommitAck, error) {
	if len(writers) == 0 {
		return nil, nil
	}
	if st.commitGuard != nil {
		// Fast rejection before the store lock is taken: a durability
		// backend that cannot accept writes (degraded to read-only,
		// poisoned) says so here, so doomed commits never contend with
		// the readers the store is still serving. The hook re-checks
		// under its own lock; the guard is advisory.
		if err := st.commitGuard(); err != nil {
			return nil, err
		}
	}
	st.lock()
	defer st.unlock()
	stripes, wrote := st.batchStripes(writers)
	var ack CommitAck
	if st.commitHook != nil && wrote {
		// A batch with no live writes in this store has nothing to make
		// durable — recovery replays write records only — so the log
		// append is skipped.
		a, err := st.commitHook(sortedWriters(writers), st.batchWrites(stripes, writers))
		if err != nil {
			return nil, err
		}
		ack = a
	}
	for _, w := range writers {
		st.freeStripes(st.writerStripes[w].stripes)
		delete(st.writerStripes, w)
	}
	if len(stripes) == 0 {
		return ack, nil
	}
	h := st.horizon()
	for _, si := range stripes {
		st.trimStripe(st.byIdx[si], writers, h)
	}
	if wrote {
		st.retireLogs(stripes, writers)
		st.commits.Add(1)
	}
	return ack, nil
}

// batchStripes returns, ascending and each once, the stripes the
// batch's writers wrote together with the stripes holding deferred
// trims, in the store's reusable buffer; wrote reports whether the
// batch has live writes here. Callers hold the write lock.
func (st *Store) batchStripes(writers []int) (stripes []int, wrote bool) {
	stripes = st.stripeScratch[:0]
	for _, w := range writers {
		stripes = append(stripes, st.writerStripes[w].stripes...)
	}
	wrote = len(stripes) > 0
	stripes = append(stripes, st.pendingIn...)
	slices.Sort(stripes)
	stripes = slices.Compact(stripes)
	st.stripeScratch = stripes
	return stripes, wrote
}

// anyWriter makes appendLogs scan every uncommitted writer's log.
const anyWriter = -1

// appendLogs is the one scan of the live write log: it appends to dst
// the log records in relation rel ("" = every relation) of writer, or
// of every uncommitted writer when writer is anyWriter, and returns the
// extended slice. Records come in no particular order.
func (st *Store) appendLogs(dst []WriteRec, rel string, writer int) []WriteRec {
	st.rlock()
	defer st.runlock()
	for _, s := range st.scanned(rel) {
		if writer != anyWriter {
			dst = append(dst, s.logs[writer]...)
			continue
		}
		for _, log := range s.logs {
			dst = append(dst, log...)
		}
	}
	return dst
}

// scanned returns the stripes a log scan of rel reads: rel's, none for
// an undeclared relation, or every stripe when rel is "".
func (st *Store) scanned(rel string) []*stripe {
	if rel == "" {
		return st.byIdx
	}
	if s := st.stripes[rel]; s != nil {
		return st.byIdx[s.idx : s.idx+1]
	}
	return nil
}

// AppendUncommittedWrites appends to dst the live writes of every
// uncommitted writer into rel — into every relation when rel is "" —
// in no particular order, and returns the extended slice. It is the
// dependency trackers' scan (§5.1): they reuse one buffer per
// goroutine and treat the result as a set.
func (st *Store) AppendUncommittedWrites(dst []WriteRec, rel string) []WriteRec {
	return st.appendLogs(dst, rel, anyWriter)
}

// AppendUncommittedWriters appends to dst the uncommitted writers with
// live writes into rel — into every relation when rel is "" — and
// returns the extended slice. With a nil match every such writer is
// appended; otherwise only a writer one of whose writes match accepts.
// A writer may appear more than once and order is unspecified: the
// dependency trackers (§5.1) charge each one as a set member. match
// runs under the store's read lock, so it must not call into the store.
func (st *Store) AppendUncommittedWriters(dst []int, rel string, match func(*WriteRec) bool) []int {
	st.rlock()
	defer st.runlock()
	for _, s := range st.scanned(rel) {
		for w, log := range s.logs {
			if match == nil || anyMatch(log, match) {
				dst = append(dst, w)
			}
		}
	}
	return dst
}

// anyMatch reports whether match accepts one of the records.
func anyMatch(log []WriteRec, match func(*WriteRec) bool) bool {
	for i := range log {
		if match(&log[i]) {
			return true
		}
	}
	return false
}

// bySeq orders write records by sequence number.
func bySeq(a, b WriteRec) int { return cmp.Compare(a.Seq, b.Seq) }

// sortedBySeq sorts recs by sequence number in place and returns it.
func sortedBySeq(recs []WriteRec) []WriteRec {
	slices.SortFunc(recs, bySeq)
	return recs
}

// AppendWritesOf appends the write log of an uncommitted writer to dst
// in no particular order and returns the extended slice.
func (st *Store) AppendWritesOf(dst []WriteRec, writer int) []WriteRec {
	return st.appendLogs(dst, "", writer)
}

// WritesOf returns the write log of an uncommitted writer in sequence
// order.
func (st *Store) WritesOf(writer int) []WriteRec {
	return sortedBySeq(st.AppendWritesOf(nil, writer))
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
	out := st.AppendUncommittedWriters(nil, rel, nil)
	slices.Sort(out)
	return slices.Compact(out)
}

// Snap returns a read view of the store at the given reader priority.
// Each of its calls takes the store's read lock and is safe for
// concurrent use.
func (st *Store) Snap(reader int) *Snapshot {
	return &Snapshot{store: st, reader: reader}
}

// SnapInto implements Backend.
func (st *Store) SnapInto(dst *Snapshot, reader int) {
	*dst = Snapshot{store: st, reader: reader}
}

// snapLocked returns a read view for use by code already holding the
// lock; its calls take none.
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
	st.rlock()
	defer st.runlock()
	var s Stats
	snap := st.snapLocked(maxReader)
	for _, sp := range st.byIdx {
		s.Tuples += sp.count
		for p := range sp.members() {
			vs := sp.chain(p)
			s.Versions += len(vs)
			if v := snap.versionOf(vs); v != nil && v.vals != nil {
				s.Visible++
			}
		}
	}
	return s
}

// Dump renders the database visible to reader as sorted text, one
// tuple per line. Intended for examples, debugging, and golden tests.
func (st *Store) Dump(reader int) string {
	st.rlock()
	defer st.runlock()
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
