package storage_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"youtopia/internal/workload"
)

// TestStoreBytesPerTuple pins the store's memory layout: the live heap
// a fresh Store holds per stored tuple after loading the initial
// database of the §6 generator (2039 tuples over 100 relations of arity
// 1–6, writer-0 loads, one version each). The bound is the 43 bytes
// achieved (go1.24, amd64) plus 10%; the figure only ever came down.
// Stripe indexes keyed by 64-bit hashes with full TupleID slots
// (map[uint64]TupleID) rather than 32-bit folds with stripe-local
// counters took the same load to 97–100 bytes per tuple; a 32-byte
// bucket object per index key, and a tuple record repeating its ID, to
// 236; a record that also repeated its relation name, to 259; value
// indexes keyed by the Value itself rather than its one-word hash, to
// 311; a write-log record per loaded tuple as well, to 468; a Go map
// per indexed value and a rendered content key on top, 1345.
func TestStoreBytesPerTuple(t *testing.T) {
	const bound = 48
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
	liveHeap := func() uint64 {
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
		return m.HeapAlloc
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
	perTuple := float64(after-before) / float64(tuples)
	t.Logf("%d tuples, %.0f live bytes per tuple", tuples, perTuple)
	if perTuple > bound {
		t.Errorf("%.0f live bytes per stored tuple, bound %d", perTuple, bound)
	}
	runtime.KeepAlive(st)
}
