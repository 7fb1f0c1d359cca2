package core

import (
	"runtime"
	"testing"

	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// TestHeapFlatAcrossRepositories: a process that keeps opening a
// repository, loading it, applying updates that carry constants no
// earlier cycle saw, and closing it must not keep anything of the
// closed repositories — in particular not their constants. The live
// heap after the last cycle stays within a small margin of the heap
// after the first. A symbol table that kept every constant it ever
// interned grew the heap here by ≈70 kB per cycle, 360 kB in all.
func TestHeapFlatAcrossRepositories(t *testing.T) {
	const cycles, updates = 6, 1000
	cfg := workload.Quick()
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heaps := make([]uint64, cycles)
	for k := range heaps {
		r, err := New(u.Schema, u.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range u.Initial {
			if _, err := r.Store().Load(tu); err != nil {
				t.Fatal(err)
			}
		}
		v := *u
		v.Config.Updates = updates
		seed := int64(k + 1)
		user := simuser.New(uint64(seed))
		for _, op := range v.GenOpsSeeded(seed) {
			if _, err := r.Apply(op, user); err != nil {
				t.Fatalf("cycle %d: %v", k, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		heaps[k] = liveHeap()
	}
	t.Logf("live heap per cycle: %v", heaps)
	const margin = 64 << 10
	if last, first := heaps[cycles-1], heaps[0]; last > first+margin {
		t.Fatalf("live heap grew from %d to %d bytes over %d cycles (margin %d)", first, last, cycles-1, margin)
	}
}
