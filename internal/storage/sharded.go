package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"youtopia/internal/model"
)

// ShardedStore is a relation-partitioned Backend: a router over N
// fully independent Store partitions. Every relation is assigned to
// exactly one shard by its (stable, schema-derived) stripe index, so
// single-relation operations — the hot path of chase execution and
// dependency tracking — touch exactly one shard's locks, logs, and
// group-commit machinery, and each shard can own its own write-ahead
// log directory (see wal.OpenSharded). The paper's trackers read the
// live write log relation by relation, so conflict tracking never
// needs a global view of the store; this type is that property turned
// into deployment structure.
//
// Shards share one sequence counter and one null factory, so sequence
// numbers stay totally ordered and labeled nulls unique across the
// whole backend — the invariants the conflict checks' interference
// windows and the chase's fresh-null minting rely on. Everything else
// is shard-local.
//
// Cross-shard operations compose shard-local primitives:
//
//   - ReplaceNull takes every shard's stripe locks, and Abort the locks
//     of the stripes the writer wrote in every shard at once (ascending
//     shard order, then stripe order); both run the shared cores, so
//     they are atomic across the whole backend exactly as on one Store.
//   - CommitBatchAsync is a two-level group commit: each shard commits
//     the batch under the locks of the stripes the batch wrote there,
//     appending only the batch's writes that live in that shard to its
//     own log (empty slices are skipped), and the returned
//     acknowledgment aggregates the per-shard ack tickets — durable
//     means durable in every involved shard. Commit status is recorded
//     in every shard, so Committed answers uniformly.
//
// A hook veto (a poisoned shard log) fails the commit fan-out at that
// shard: shards earlier in the order have committed — each internally
// consistent with its own log — and the error aborts the run, exactly
// as a poisoned log does on a single store. Cross-shard atomicity of
// one commit batch under a crash between shard appends is therefore
// per-shard-prefix, not all-or-nothing; the multi-directory recovery
// tests pin down exactly that contract.
type ShardedStore struct {
	schema *model.Schema
	shards []*Store
	nulls  *model.NullFactory
	seq    *atomic.Int64
}

// NewSharded creates an empty sharded backend over a schema with the
// given number of partitions (values below 1 are treated as 1).
func NewSharded(schema *model.Schema, shards int) *ShardedStore {
	if shards < 1 {
		shards = 1
	}
	stores := make([]*Store, shards)
	for i := range stores {
		stores[i] = NewStore(schema)
	}
	ss, err := NewShardedFromStores(stores)
	if err != nil {
		panic(err) // fresh same-schema stores cannot fail validation
	}
	return ss
}

// NewShardedFromStores assembles a sharded backend from existing
// partitions — the constructor recovery uses after opening each
// shard's write-ahead log directory. The stores must all be built
// over the same schema and must not be in concurrent use; the call
// repoints them at a shared sequence counter and null factory (seeded
// past every partition's current values, so recovered state keeps its
// identities).
func NewShardedFromStores(stores []*Store) (*ShardedStore, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("storage: sharded store needs at least one partition")
	}
	schema := stores[0].schema
	for i, st := range stores {
		if st.schema != schema {
			return nil, fmt.Errorf("storage: shard %d was built over a different schema", i)
		}
	}
	ss := &ShardedStore{
		schema: schema,
		shards: stores,
		nulls:  new(model.NullFactory),
		seq:    new(atomic.Int64),
	}
	for _, st := range stores {
		st.adoptShared(ss.seq, ss.nulls)
		st.peers = stores
	}
	return ss, nil
}

// Shards returns the partition list, shard 0 first. Callers must not
// mutate it; it is exposed for per-shard wiring (WAL managers) and
// inspection.
func (ss *ShardedStore) Shards() []*Store { return ss.shards }

// NumShards returns the partition count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// ShardForRelation returns the index of the shard owning a relation,
// or -1 for undeclared relations. The assignment is the relation's
// schema stripe index modulo the shard count (partitionForRel) —
// stable across runs for a fixed schema and shard count, which is
// what lets per-shard WAL directories be reopened.
func (ss *ShardedStore) ShardForRelation(rel string) int {
	s := ss.shards[0].stripes[rel]
	if s == nil {
		return -1
	}
	return s.idx % len(ss.shards)
}

// partitionForRel resolves a relation to its owning partition and
// stripe over a partition list — THE routing rule of the sharded
// store, shared with Snapshot so reads and writes can never route
// differently: a relation lives in partition (schema stripe index mod
// partition count). Every partition is built over the same schema, so
// stripe indexes agree across them. Returns (nil, nil) for undeclared
// relations.
func partitionForRel(stores []*Store, rel string) (*Store, *stripe) {
	s := stores[0].stripes[rel]
	if s == nil {
		return nil, nil
	}
	st := stores[s.idx%len(stores)]
	return st, st.byIdx[s.idx]
}

// partitionForID resolves a tuple ID to its owning partition and
// stripe by the same rule — the stripe index rides in the ID's high
// bits. Returns (nil, nil) for IDs no stripe could have minted.
func partitionForID(stores []*Store, id TupleID) (*Store, *stripe) {
	idx := int(int64(id) >> localIDBits)
	if idx < 0 || idx >= len(stores[0].byIdx) {
		return nil, nil
	}
	st := stores[idx%len(stores)]
	return st, st.byIdx[idx]
}

// shardFor resolves a relation to its owning partition (nil for
// undeclared relations).
func (ss *ShardedStore) shardFor(rel string) *Store {
	st, _ := partitionForRel(ss.shards, rel)
	return st
}

// shardForID resolves a tuple ID to its owning partition (nil for IDs
// no stripe could have minted).
func (ss *ShardedStore) shardForID(id TupleID) *Store {
	st, _ := partitionForID(ss.shards, id)
	return st
}

// lockAllShards acquires every stripe lock of every shard in ascending
// (shard, stripe) order — the cross-shard exclusive section ReplaceNull
// runs in. unlockAllShards releases them.
func (ss *ShardedStore) lockAllShards() {
	for _, sh := range ss.shards {
		sh.lockAll()
	}
}

func (ss *ShardedStore) unlockAllShards() {
	for _, sh := range ss.shards {
		sh.unlockAll()
	}
}

// Schema implements Backend.
func (ss *ShardedStore) Schema() *model.Schema { return ss.schema }

// FreshNull implements Backend: the factory is shared, so nulls are
// unique across every shard.
func (ss *ShardedStore) FreshNull() model.Value { return ss.nulls.Fresh() }

// NullMark and RewindNulls capture and restore the shared null
// counter; see Store.RewindNulls for the soundness conditions.
func (ss *ShardedStore) NullMark() int64        { return ss.nulls.Mark() }
func (ss *ShardedStore) RewindNulls(mark int64) { ss.nulls.Rewind(mark) }

// Snap implements Backend: the snapshot routes over all shards.
func (ss *ShardedStore) Snap(reader int) *Snapshot {
	return &Snapshot{stores: ss.shards, reader: reader}
}

// SnapInto implements Backend.
func (ss *ShardedStore) SnapInto(dst *Snapshot, reader int) {
	*dst = Snapshot{stores: ss.shards, reader: reader}
}

// Insert implements Backend by routing to the owning shard. Undeclared
// relations fall through to shard 0, whose schema check rejects them
// with the same error a single store reports.
func (ss *ShardedStore) Insert(writer int, t model.Tuple) (TupleID, WriteRec, bool, error) {
	sh := ss.shardFor(t.Rel)
	if sh == nil {
		sh = ss.shards[0]
	}
	return sh.Insert(writer, t)
}

// Delete implements Backend by routing on the tuple ID's stripe.
func (ss *ShardedStore) Delete(writer int, id TupleID) (WriteRec, bool, error) {
	sh := ss.shardForID(id)
	if sh == nil {
		return WriteRec{}, false, nil
	}
	return sh.Delete(writer, id)
}

// DeleteContent implements Backend by routing to the owning shard.
func (ss *ShardedStore) DeleteContent(writer int, t model.Tuple) ([]WriteRec, error) {
	sh := ss.shardFor(t.Rel)
	if sh == nil {
		sh = ss.shards[0]
	}
	return sh.DeleteContent(writer, t)
}

// ReplaceNull implements Backend: the replacement spans relations and
// therefore shards, so it holds every shard's stripe locks for its
// duration — the one mutator that still serializes backend-wide,
// exactly as on a single store. Hits are processed in ascending
// tuple-ID order, so the write records are identical whatever the
// shard count.
func (ss *ShardedStore) ReplaceNull(writer int, x, to model.Value) ([]WriteRec, error) {
	if err := checkReplaceNull(x, to); err != nil {
		return nil, err
	}
	if to.IsNull() {
		ss.nulls.SetFloor(to.NullID())
	}
	ss.lockAllShards()
	defer ss.unlockAllShards()
	return replaceNullLocked(ss.shards, writer, x, to), nil
}

// Load implements Backend.
func (ss *ShardedStore) Load(t model.Tuple) (TupleID, error) {
	id, _, _, err := ss.Insert(0, t)
	return id, err
}

// Abort implements Backend: every shard's versions by the writer are
// removed while the stripes it wrote are locked in all shards at once,
// so no reader can observe a partially aborted writer.
func (ss *ShardedStore) Abort(writer int) {
	if writer == 0 {
		panic("storage: cannot abort the initial load")
	}
	written := make([][]int, len(ss.shards))
	for k, sh := range ss.shards {
		written[k] = sh.lockWritten(writer)
	}
	for k, sh := range ss.shards {
		sh.abortLocked(writer, written[k])
	}
	for k, sh := range ss.shards {
		sh.unlockStripes(written[k])
	}
	ss.settle()
}

// settle lets every shard drain its deferred trims once no writer is
// live in any of them; see Store.settle.
func (ss *ShardedStore) settle() {
	for _, sh := range ss.shards {
		sh.settle()
	}
}

// Commit implements Backend.
func (ss *ShardedStore) Commit(writer int) error {
	return ss.CommitBatch([]int{writer})
}

// CommitBatch implements Backend: CommitBatchAsync followed by the
// aggregated ack wait.
func (ss *ShardedStore) CommitBatch(writers []int) error {
	ack, err := ss.CommitBatchAsync(writers)
	if err != nil {
		return err
	}
	if ack != nil {
		return ack()
	}
	return nil
}

// CommitBatchAsync implements Backend as a two-level group commit:
// each shard retires the batch under the locks of the stripes the
// batch wrote there — one log append per shard that the batch actually
// wrote to — and the returned acknowledgment resolves once every
// involved shard's covering sync has landed (the first error wins).
// Shards the batch never wrote to still flip the writers' commit
// status but stay out of the durability path entirely.
func (ss *ShardedStore) CommitBatchAsync(writers []int) (CommitAck, error) {
	if len(writers) == 0 {
		return nil, nil
	}
	var acks []CommitAck
	for i, sh := range ss.shards {
		ack, err := sh.CommitBatchAsync(writers)
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", i, err)
		}
		if ack != nil {
			acks = append(acks, ack)
		}
	}
	// A shard that committed before the others still counted the
	// batch's writers live there, so its trims may have been deferred.
	ss.settle()
	switch len(acks) {
	case 0:
		return nil, nil
	case 1:
		return acks[0], nil
	}
	return func() error {
		var first error
		for _, ack := range acks {
			if err := ack(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// Committed implements Backend. Commit status is recorded in every
// shard, so any one answers for all.
func (ss *ShardedStore) Committed(writer int) bool {
	return ss.shards[0].Committed(writer)
}

// SetCommitHook implements Backend by installing the hook on every
// shard; each shard hands it that shard's slice of every commit
// batch. Per-shard durability (one WAL manager per shard) installs
// distinct hooks directly on Shards() instead.
func (ss *ShardedStore) SetCommitHook(h CommitHook) {
	for _, sh := range ss.shards {
		sh.SetCommitHook(h)
	}
}

// SetCommitGuard installs the admission guard on every shard, so a
// sharded commit is rejected by whichever shard's backend degraded.
// Per-shard durability installs distinct guards directly on Shards().
func (ss *ShardedStore) SetCommitGuard(g CommitGuard) {
	for _, sh := range ss.shards {
		sh.SetCommitGuard(g)
	}
}

// Persistent implements Backend.
func (ss *ShardedStore) Persistent() bool {
	for _, sh := range ss.shards {
		if sh.Persistent() {
			return true
		}
	}
	return false
}

// SyncCount implements Backend: the sum of the shards' backend fsync
// counts — the aggregate the schedulers diff into Metrics.WALSyncs.
func (ss *ShardedStore) SyncCount() int64 {
	var n int64
	for _, sh := range ss.shards {
		n += sh.SyncCount()
	}
	return n
}

// CurrentSeq implements Backend; the counter is shared, so any shard
// reports the backend-wide high-water mark.
func (ss *ShardedStore) CurrentSeq() int64 { return ss.seq.Load() }

// RelSeq implements Backend by routing to the owning shard.
func (ss *ShardedStore) RelSeq(rel string) int64 {
	sh := ss.shardFor(rel)
	if sh == nil {
		return 0
	}
	return sh.RelSeq(rel)
}

// appendLogs is Store.appendLogs over the partitions: a relation's
// scan is its owning shard's business, a scan of every relation visits
// every shard (each one consistent, the union per-shard atomic).
func (ss *ShardedStore) appendLogs(dst []WriteRec, rel string, writer int) []WriteRec {
	if rel != "" {
		if sh := ss.shardFor(rel); sh != nil {
			return sh.appendLogs(dst, rel, writer)
		}
		return dst
	}
	for _, sh := range ss.shards {
		dst = sh.appendLogs(dst, "", writer)
	}
	return dst
}

// AppendUncommittedWrites implements Backend.
func (ss *ShardedStore) AppendUncommittedWrites(dst []WriteRec, rel string) []WriteRec {
	return ss.appendLogs(dst, rel, anyWriter)
}

// WritesOf implements Backend.
func (ss *ShardedStore) WritesOf(writer int) []WriteRec {
	return sortedBySeq(ss.appendLogs(nil, "", writer))
}

// UncommittedWrites implements Backend.
func (ss *ShardedStore) UncommittedWrites() []WriteRec {
	return sortedBySeq(ss.appendLogs(nil, "", anyWriter))
}

// UncommittedWritesOf implements Backend.
func (ss *ShardedStore) UncommittedWritesOf(rel string) []WriteRec {
	return sortedBySeq(ss.appendLogs(nil, rel, anyWriter))
}

// UncommittedWritersOf implements Backend.
func (ss *ShardedStore) UncommittedWritersOf(rel string) []int {
	return writersIn(ss.appendLogs(nil, rel, anyWriter))
}

// Stats implements Backend by summing the shards.
func (ss *ShardedStore) Stats() Stats {
	var out Stats
	for _, sh := range ss.shards {
		s := sh.Stats()
		out.Tuples += s.Tuples
		out.Versions += s.Versions
		out.Visible += s.Visible
	}
	return out
}

// Dump implements Backend. The rendering is byte-identical to a
// single store holding the same tuples: lines are collected from each
// relation's owning shard and sorted globally, under every shard's
// read locks so the cut is consistent.
func (ss *ShardedStore) Dump(reader int) string {
	for _, sh := range ss.shards {
		sh.rlockAll()
	}
	defer func() {
		for _, sh := range ss.shards {
			sh.runlockAll()
		}
	}()
	snap := &Snapshot{stores: ss.shards, reader: reader, noLock: true}
	var lines []string
	for _, rel := range ss.shards[0].relsByIdx {
		_, s := snap.stripeFor(rel)
		snap.scanStripe(s, func(id TupleID, vals []model.Value) bool {
			lines = append(lines, model.Tuple{Rel: rel, Vals: vals}.String())
			return true
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
