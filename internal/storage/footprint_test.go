package storage_test

import (
	"runtime"
	"testing"

	"youtopia/internal/workload"
)

// TestStoreBytesPerTuple pins the store's memory layout: the live heap
// a fresh Store holds per stored tuple after loading the initial
// database of the §6 generator (2039 tuples over 100 relations of arity
// 1–6, writer-0 loads, one version each). The bound is the 244 bytes
// achieved (go1.24, amd64) plus 10%. A tuple record that repeated its
// relation name took the same load to 259 bytes per tuple; value
// indexes keyed by the Value itself rather than its one-word hash, to
// 311; a write-log record per loaded tuple as well, to 468; a Go map
// per indexed value and a rendered content key on top, 1345.
func TestStoreBytesPerTuple(t *testing.T) {
	const bound = 268
	cfg := workload.Default()
	cfg.InitialTuples = 1000
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
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
