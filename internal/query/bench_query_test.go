package query

import (
	"fmt"
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

func BenchmarkViolationsSeeded(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	vals := []model.Value{c("a8"), c("j8")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ViolationsSeeded(m, "A", vals, SeedLHS)
	}
}

// satisfiedMatch returns the LHS match A(a10, j10) ⋈ T(j10, z10) of
// benchWorld's mapping as a violation to recheck: R(a10, z10) exists,
// so its RHS probe succeeds and Recheck reports it gone.
func satisfiedMatch(tb testing.TB, st *storage.Store, m *tgd.TGD) *Violation {
	tb.Helper()
	snap := st.Snap(1)
	a := rowIDs(snap, "A", 0, c("a10"))[0]
	z := rowIDs(snap, "T", 1, c("z10"))[0]
	return &Violation{TGD: m, Witness: []storage.TupleID{a, z}}
}

// BenchmarkJoinBindingChurn pins the allocation behaviour of the
// match hot loop (run with -benchmem): on the compiled slot runtime a
// steady-state early-stopping join — here the RHS existence probe of a
// warm Recheck — costs 0 allocs/op: the register file and witness
// scratch come from the engine's run pool, the bound set is a bitmask,
// and the match callback is a package-level function, so nothing
// escapes. The companion regression test TestJoinBindingAllocBound
// turns the number into a gate.
func BenchmarkJoinBindingChurn(b *testing.B) {
	st, m := benchWorld(b, 1000)
	e := NewEngine(st.Snap(1))
	v := satisfiedMatch(b, st, m)
	if e.Recheck(v) { // warm the pools
		b.Fatal("RHS must be satisfied")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Recheck(v) {
			b.Fatal("RHS must be satisfied")
		}
	}
}

// BenchmarkCertainAnswers runs a warm three-atom certain-answer query
// of 100 rows (run with -benchmem): the plan, join order, packed rows
// and sort permutation are engine scratch, so each answer costs two
// allocations — its rows and one array of their values.
// TestCertainAnswersAllocs is the gate.
func BenchmarkCertainAnswers(b *testing.B) {
	st, _ := benchWorld(b, 200)
	e := NewEngine(st.Snap(1))
	cq := &CQ{Name: "covered", Head: []string{"x", "z"}, Body: []tgd.Atom{
		tgd.NewAtom("A", tgd.V("x"), tgd.V("y")),
		tgd.NewAtom("T", tgd.V("y"), tgd.V("z")),
		tgd.NewAtom("R", tgd.V("x"), tgd.V("z"))}}
	if rows := e.CertainAnswers(cq); len(rows) != 100 {
		b.Fatalf("%d rows, want 100", len(rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CertainAnswers(cq)
	}
}

// BenchmarkBestEffortAnswers runs BenchmarkCertainAnswers' query under
// best-effort semantics (run with -benchmem). Unification lets a null
// match any value, so every step scans its relation instead of probing
// an index; the plan, join order, unification trail, packed rows and
// sort permutation are engine scratch, so each answer costs the same
// two allocations as a certain answer. TestCertainAnswersAllocs is the
// gate.
func BenchmarkBestEffortAnswers(b *testing.B) {
	st, _ := benchWorld(b, 200)
	e := NewEngine(st.Snap(1))
	cq := &CQ{Name: "covered", Head: []string{"x", "z"}, Body: []tgd.Atom{
		tgd.NewAtom("A", tgd.V("x"), tgd.V("y")),
		tgd.NewAtom("T", tgd.V("y"), tgd.V("z")),
		tgd.NewAtom("R", tgd.V("x"), tgd.V("z"))}}
	if rows := e.BestEffortAnswers(cq); len(rows) != 100 {
		b.Fatalf("%d rows, want 100", len(rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BestEffortAnswers(cq)
	}
}

// TestJoinBindingAllocBound is the -benchmem guard in test form: the
// steady-state early-stopping join on the compiled slot runtime must
// not allocate at all. A regression here means binding, frame, or
// closure churn crept back into the hottest loop of the system.
func TestJoinBindingAllocBound(t *testing.T) {
	st, m := benchWorld(&testing.B{}, 1000)
	e := NewEngine(st.Snap(1))
	v := satisfiedMatch(t, st, m)
	if e.Recheck(v) { // warm the pools
		t.Fatal("RHS must be satisfied")
	}
	got := testing.AllocsPerRun(200, func() {
		e.Recheck(v)
	})
	if got != 0 {
		t.Fatalf("steady-state compiled join allocates %.1f times per op, want 0", got)
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

// TestWideSeededQueryAllocFree: a mapping of 66 variables — a two-word
// slot set — runs the warm seeded violation query that finds nothing
// without allocating, like any narrow mapping.
func TestWideSeededQueryAllocFree(t *testing.T) {
	const width = 64 // private LHS variables beside x and y
	terms := []tgd.Term{tgd.V("x"), tgd.V("y")}
	for i := 0; i < width; i++ {
		terms = append(terms, tgd.V(fmt.Sprintf("v%d", i)))
	}
	s := model.NewSchema()
	s.MustAddRelation("W", fieldNames(len(terms))...)
	s.MustAddRelation("R", "x", "y")
	m := tgd.New("wide",
		[]tgd.Atom{tgd.NewAtom("W", terms...)},
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("y"))})
	if n := len(PlanFor(m).Slots()); n != 66 {
		t.Fatalf("plan has %d slots, want 66", n)
	}
	st := storage.NewStore(s)
	vals := make([]model.Value, len(terms))
	for i := 0; i < 50; i++ {
		for j := range vals {
			vals[j] = c(fmt.Sprintf("k%d", j))
		}
		vals[0], vals[1] = c(fmt.Sprintf("a%d", i)), c(fmt.Sprintf("b%d", i))
		st.Load(model.NewTuple("W", vals...))
		st.Load(model.NewTuple("R", vals[0], vals[1]))
	}
	e := NewEngine(st.Snap(1))
	if vs := e.ViolationsSeeded(m, "W", vals, SeedLHS); len(vs) != 0 {
		t.Fatalf("satisfied world reports %d violations", len(vs))
	}
	got := testing.AllocsPerRun(200, func() {
		e.ViolationsSeeded(m, "W", vals, SeedLHS)
	})
	if got != 0 {
		t.Fatalf("steady-state wide seeded violation query allocates %.1f times per op, want 0", got)
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
