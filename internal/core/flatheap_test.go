package core

import (
	"fmt"
	"runtime"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/parse"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// liveHeap returns the heap that survives a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

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

// TestHeapFlatUnderChurn: one repository takes cycles that insert N
// facts, which mappings copy into eight more relations, and delete them
// again, which the mappings carry back out of those relations — so the
// live tuple count ends every cycle where it began. Over the second
// half of the run the live heap stays within a small margin: committed
// history no reader can see — superseded versions, tombstones, their
// index entries — leaves the store at commit. The first half lets the
// store's Go maps reach the capacity this churn holds them at (a map
// keeps its peak size); the store keeps nothing per committed update,
// so the margin does not grow with the update count. A store that kept
// its history grew here by ≈200 kB per cycle, and one that kept a
// commit-status entry per update by ≈7 kB.
func TestHeapFlatUnderChurn(t *testing.T) {
	const cycles, facts, copies = 12, 100, 8
	src := "relation R(a)\n"
	for i := range copies {
		src += fmt.Sprintf("relation S%d(a)\nmapping out%d: R(x) -> S%d(x)\nmapping back%d: S%d(x) -> R(x)\n", i, i, i, i, i)
	}
	doc, err := parse.ParseDocument(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(doc.Schema, doc.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	user := simuser.New(1)
	apply := func(op chase.Op) {
		if _, err := r.Apply(op, user); err != nil {
			t.Fatal(err)
		}
	}
	fact := func(i int) model.Tuple { return model.NewTuple("R", model.Const(fmt.Sprintf("a%d", i))) }
	apply(chase.Insert(fact(-1))) // one live fact and its copies throughout
	heaps := make([]uint64, cycles)
	for k := range heaps {
		for i := range facts {
			apply(chase.Insert(fact(i)))
		}
		for i := range facts {
			apply(chase.Delete(fact(i)))
		}
		if got := r.Store().Stats().Visible; got != 1+copies {
			t.Fatalf("cycle %d ends with %d live tuples, want %d", k, got, 1+copies)
		}
		heaps[k] = liveHeap()
	}
	t.Logf("live heap per cycle: %v", heaps)
	const margin = 16 << 10
	from := cycles/2 - 1
	if last, first := heaps[cycles-1], heaps[from]; last > first+margin {
		t.Fatalf("live heap grew from %d to %d bytes over cycles %d to %d (margin %d)", first, last, from+1, cycles, margin)
	}
	runtime.KeepAlive(r)
}
