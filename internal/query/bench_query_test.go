package query

import (
	"fmt"
	"runtime"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// benchWorld builds a two-relation join world: A(x, y) ⋈ T(y, z) with
// a mapping requiring every join pair to have an R entry.
func benchWorld(b *testing.B, rows int) (*storage.Store, *tgd.TGD) {
	b.Helper()
	s := model.NewSchema()
	s.MustAddRelation("A", "x", "y")
	s.MustAddRelation("T", "y", "z")
	s.MustAddRelation("R", "x", "z")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"), tgd.V("y")),
			tgd.NewAtom("T", tgd.V("y"), tgd.V("z"))},
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("z"))})
	st := storage.NewStore(s)
	for i := 0; i < rows; i++ {
		st.Load(model.NewTuple("A",
			c(fmt.Sprintf("a%d", i)), c(fmt.Sprintf("j%d", i%40))))
		st.Load(model.NewTuple("T",
			c(fmt.Sprintf("j%d", i%40)), c(fmt.Sprintf("z%d", i))))
		if i%2 == 0 {
			st.Load(model.NewTuple("R",
				c(fmt.Sprintf("a%d", i)), c(fmt.Sprintf("z%d", i))))
		}
	}
	return st, m
}

func BenchmarkLHSMatchesSeeded(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	seed := Binding{"y": c("j7")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := e.LHSMatches(m, seed)
		if len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkViolationsSeeded(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	vals := []model.Value{c("a8"), c("j8")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ViolationsSeeded(m, "A", vals, SeedLHS)
	}
}

func BenchmarkRHSSatisfied(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	bnd := Binding{"x": c("a10"), "z": c("z10")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.RHSSatisfied(m, bnd) {
			b.Fatal("must be satisfied")
		}
	}
}

// BenchmarkJoinBindingChurn pins the allocation behaviour of the
// match hot loop (run with -benchmem): on the compiled slot runtime a
// steady-state early-stopping join costs 0 allocs/op — the register
// file and witness scratch come from the engine's run pool, the bound
// set is a stack bitmask, and the match callback is a package-level
// function, so nothing escapes. The companion regression test
// TestJoinBindingAllocBound turns the number into a gate; the
// interpreted fallback engine keeps its historical 3 allocs/op bound
// (recursion closure plus the escaping result binding).
func BenchmarkJoinBindingChurn(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	bnd := Binding{"x": c("a10"), "z": c("z10")}
	if !e.RHSSatisfied(m, bnd) { // warm the pools
		b.Fatal("must be satisfied")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.RHSSatisfied(m, bnd) {
			b.Fatal("must be satisfied")
		}
	}
}

// TestJoinBindingAllocBound is the -benchmem guard in test form: the
// steady-state early-stopping join on the compiled slot runtime must
// not allocate at all. A regression here means binding, frame, or
// closure churn crept back into the hottest loop of the system. The
// interpreted fallback keeps its historical bound of 3 heap
// allocations (closure + result binding header and buckets).
func TestJoinBindingAllocBound(t *testing.T) {
	st, m := benchWorld(&testing.B{}, 1000)
	e := NewEngine(st.Snap(1))
	bnd := Binding{"x": c("a10"), "z": c("z10")}
	if !e.RHSSatisfied(m, bnd) { // warm the pools
		t.Fatal("must be satisfied")
	}
	got := testing.AllocsPerRun(200, func() {
		e.RHSSatisfied(m, bnd)
	})
	if got != 0 {
		t.Fatalf("steady-state compiled join allocates %.1f times per op, want 0", got)
	}

	ie := NewInterpretedEngine(st.Snap(1))
	if !ie.RHSSatisfied(m, bnd) {
		t.Fatal("must be satisfied")
	}
	got = testing.AllocsPerRun(200, func() {
		ie.RHSSatisfied(m, bnd)
	})
	if got > 3 {
		t.Fatalf("steady-state interpreted join allocates %.1f times per op, want <= 3", got)
	}
}

// TestInterpretedProbeAllocFreeAcrossCollections: the interpreted
// engine probes the value index with an atom's constants. The atom
// holds them interned, so a constant that no stored tuple carries is
// not collected between probes and minted again by the next one: a
// probe right after a collection allocates nothing.
func TestInterpretedProbeAllocFreeAcrossCollections(t *testing.T) {
	st, _ := benchWorld(&testing.B{}, 10)
	atom := tgd.NewAtom("A", tgd.C(fmt.Sprint("never-stored-", 1)), tgd.V("y"))
	e := NewInterpretedEngine(st.Snap(1))
	// runtime.GC allocates itself, so the probe is measured alone. A
	// finalizer the collection queued may still run, and allocate, in
	// the measured window, so a few probes are allowed to count one; a
	// probe that mints its constant anew allocates every time.
	const probes = 20
	var before, after runtime.MemStats
	allocating := 0
	for range probes {
		runtime.GC()
		runtime.ReadMemStats(&before)
		ids := e.candidates(atom, nil)
		runtime.ReadMemStats(&after)
		if len(ids) != 0 {
			t.Fatal("a constant no tuple carries has candidates")
		}
		if after.Mallocs != before.Mallocs {
			allocating++
		}
	}
	if allocating > probes/4 {
		t.Fatalf("%d of %d probes after a collection allocate, want none", allocating, probes)
	}
}

// TestSeededQueryAllocFree pins the full §4.2 seeded violation query:
// when the write creates no violation — the overwhelmingly common
// steady state of a satisfied database — the whole evaluation (seed
// unification, LHS join, RHS probes, dedup) performs zero heap
// allocations on a warm engine.
func TestSeededQueryAllocFree(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("A", "x", "y")
	s.MustAddRelation("T", "y", "z")
	s.MustAddRelation("R", "x", "z")
	m := tgd.New("sat",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"), tgd.V("y")),
			tgd.NewAtom("T", tgd.V("y"), tgd.V("z"))},
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("z"))})
	st := storage.NewStore(s)
	// Each join value j_k has exactly one T row, and every A row's
	// single join pair is covered by R: the database is satisfied.
	for k := 0; k < 5; k++ {
		st.Load(model.NewTuple("T", c(fmt.Sprintf("j%d", k)), c(fmt.Sprintf("z%d", k))))
	}
	for i := 0; i < 200; i++ {
		st.Load(model.NewTuple("A", c(fmt.Sprintf("a%d", i)), c(fmt.Sprintf("j%d", i%5))))
		st.Load(model.NewTuple("R", c(fmt.Sprintf("a%d", i)), c(fmt.Sprintf("z%d", i%5))))
	}
	e := NewEngine(st.Snap(1))
	vals := []model.Value{c("a0"), c("j0")}
	if vs := e.ViolationsSeeded(m, "A", vals, SeedLHS); len(vs) != 0 {
		t.Fatalf("satisfied world reports %d violations", len(vs))
	}
	got := testing.AllocsPerRun(200, func() {
		e.ViolationsSeeded(m, "A", vals, SeedLHS)
	})
	if got != 0 {
		t.Fatalf("steady-state seeded violation query allocates %.1f times per op, want 0", got)
	}
}

func BenchmarkViolationReadAffectedBy(b *testing.B) {
	st, m := benchWorld(b, 1000)
	_, w, _, err := st.Insert(2, model.NewTuple("A", c("fresh"), c("j3")))
	if err != nil {
		b.Fatal(err)
	}
	q, _ := NewViolationRead(NewEngine(st.Snap(2)), m, w.Rel, w.After, SeedLHS)
	// A later write by update 1 joining through j3.
	_, w1, _, err := st.Insert(1, model.NewTuple("T", c("j3"), c("zz")))
	if err != nil {
		b.Fatal(err)
	}
	var chk Checker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.AffectedBy(&chk, st, w1) {
			b.Fatal("must be affected")
		}
	}
}
