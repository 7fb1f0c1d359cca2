package storage_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"youtopia/internal/workload"
)

// TestStoreBytesPerTuple pins the store's memory layout: the live heap,
// in bytes and in objects, a fresh Store holds per stored tuple after
// loading the initial database of the §6 generator (2039 tuples over
// 100 relations of arity 1–6, writer-0 loads, one version each). The
// universe stays reachable across both heap readings, so its initial
// tuples and mappings fall out of the difference and what is left is
// the store's own. The bounds are the figures achieved (go1.24, amd64)
// plus about 10%; the figures only ever came down.
//
// Indexes held as sorted runs of (key, member) entries in fixed pages,
// beside the tuple table's fixed pages, hold 206 bytes and 1.78 objects
// per tuple: a key no longer costs a map slot in a table that doubles
// or splits as keys arrive, a list header or a list array of its own.
// With a Go map per index from a key to its one member or to a list,
// a tuple table of fixed 16-member pages, each member's ID beside its
// one three-word version, with a labeled null listed in the null index
// only, held 235 bytes and 2.63 objects per tuple. A member list and a
// parallel record table, each regrown by insertion, with a null listed
// under its column as well, held 251 bytes and 2.65 objects; a map from
// ID to a record owning an array of 48-byte versions held 324 bytes and
// 4.78 objects. Earlier figures were read without
// keeping the universe alive, so the universe's own heap, collected
// between the readings, was subtracted from them: 43 bytes with the
// stripe indexes' 32-bit folded keys and stripe-local slots, 97–100
// with 64-bit keys and full TupleID slots. Measured that way, a 32-byte
// bucket object per index key and a tuple record repeating its ID read
// 236; a record that also repeated its relation name, 259; value
// indexes keyed by the Value itself rather than its one-word hash, 311;
// a write-log record per loaded tuple as well, 468; a Go map per indexed
// value and a rendered content key on top, 1345.
func TestStoreBytesPerTuple(t *testing.T) {
	const (
		boundBytes   = 227
		boundObjects = 1.95
	)
	cfg := workload.Default()
	cfg.InitialTuples = 1000
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The heap that survives collections once it stops shrinking: the
	// symbol table is resized on the cleanup goroutine after a collection
	// that follows mints (model.settleSymbols), and the table it
	// replaces goes with the next collection.
	liveHeap := func() runtime.MemStats {
		var m runtime.MemStats
		prev := uint64(math.MaxUint64)
		for range 10 {
			runtime.GC()
			runtime.ReadMemStats(&m)
			if m.HeapAlloc >= prev {
				break
			}
			prev = m.HeapAlloc
			time.Sleep(2 * time.Millisecond)
		}
		return m
	}
	before := liveHeap()
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	tuples := st.Stats().Tuples
	if tuples < 1000 {
		t.Fatalf("only %d tuples loaded; the pin needs a populated store", tuples)
	}
	perTuple := float64(after.HeapAlloc-before.HeapAlloc) / float64(tuples)
	objects := (float64(after.HeapObjects) - float64(before.HeapObjects)) / float64(tuples)
	t.Logf("%d tuples, %.0f live bytes and %.2f heap objects per tuple", tuples, perTuple, objects)
	if perTuple > boundBytes {
		t.Errorf("%.0f live bytes per stored tuple, bound %d", perTuple, boundBytes)
	}
	if objects > boundObjects {
		t.Errorf("%.2f heap objects per stored tuple, bound %.1f", objects, boundObjects)
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(u)
}
