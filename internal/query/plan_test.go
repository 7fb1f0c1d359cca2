package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// TestPlanSlotAssignment pins the canonical slot order: LHS variables
// in first-occurrence order, then RHS-only (existential) variables,
// with constants compiled to interned values instead of slots.
func TestPlanSlotAssignment(t *testing.T) {
	m := tgd.New("p",
		[]tgd.Atom{
			tgd.NewAtom("A", tgd.V("b"), tgd.V("a"), tgd.C("k")),
			tgd.NewAtom("B", tgd.V("a"), tgd.V("c")),
		},
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("c"), tgd.V("z"))})
	p := PlanFor(m)
	want := []string{"b", "a", "c", "z"}
	if got := p.Slots(); len(got) != len(want) {
		t.Fatalf("slots = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slots = %v, want %v", got, want)
			}
		}
	}
	// b, a, c are LHS slots; c is the only frontier variable.
	if p.nLHS != 3 {
		t.Fatalf("nLHS = %d, want 3", p.nLHS)
	}
	if !slices.Equal(p.frontier, slotSet{0b0100}) {
		t.Fatalf("frontier = %b, want 0100", p.frontier)
	}
	// The constant position carries the interned value, not a slot.
	kd := p.lhs[0].terms[2]
	if kd.slot >= 0 || kd.cval != model.Const("k") {
		t.Fatalf("constant term compiled to %+v", kd)
	}
}

// TestPlanCachedOnTGD checks that compilation happens once per mapping
// and the plan is shared by every engine in the process.
func TestPlanCachedOnTGD(t *testing.T) {
	m := tgd.New("cache",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"))})
	p1 := PlanFor(m)
	p2 := PlanFor(m)
	if p1 != p2 {
		t.Fatal("PlanFor recompiled a cached mapping")
	}
}

// TestPlanTooManyVars: a mapping with more variables than one word of
// slot set holds compiles like any other, and its violations match the
// reference's.
func TestPlanTooManyVars(t *testing.T) {
	terms := make([]tgd.Term, 65)
	for i := range terms {
		terms[i] = tgd.V(fmt.Sprintf("v%d", i))
	}
	m := tgd.New("wide",
		[]tgd.Atom{tgd.NewAtom("Wide", terms...)},
		[]tgd.Atom{tgd.NewAtom("Out", terms[0], terms[64])})
	p := PlanFor(m)
	if len(p.Slots()) != 65 || len(p.frontier) != 2 || !p.frontier.has(64) {
		t.Fatalf("plan: %d slots, %d-word sets, frontier %b", len(p.Slots()), len(p.frontier), p.frontier)
	}

	s := model.NewSchema()
	s.MustAddRelation("Wide", fieldNames(65)...)
	s.MustAddRelation("Out", "x", "y")
	st := storage.NewStore(s)
	for k := 0; k < 3; k++ {
		vals := make([]model.Value, 65)
		for i := range vals {
			vals[i] = c(fmt.Sprintf("c%d_%d", k, i))
		}
		st.Load(model.NewTuple("Wide", vals...))
		if k == 1 {
			st.Load(model.NewTuple("Out", vals[0], vals[64]))
		}
	}
	snap := st.Snap(1)
	got := NewEngine(snap).Violations(m)
	checkViols(t, "Violations(wide)", got, refEngine{snap: snap}.Violations(m))
	if len(got) != 2 {
		t.Fatalf("violations %v, want 2", got)
	}
}

// TestOrderCachedPerShape: each seed shape computes its order once and
// every later evaluation — on any engine — reuses the same object.
func TestOrderCachedPerShape(t *testing.T) {
	st, m := benchWorld(&testing.B{}, 100)
	p := PlanFor(m)
	snap := st.Snap(1)
	o1 := p.orderFor(snap, false, slotSet{0b01})
	o2 := p.orderFor(snap, false, slotSet{0b01})
	if o1 != o2 {
		t.Fatal("same shape recomputed its order")
	}
	o3 := p.orderFor(snap, false, slotSet{0b10})
	if o3 == o1 {
		t.Fatal("distinct shapes share an order object")
	}
}

// TestOrderPrefersSelectiveAtom: with equal bound-variable counts, the
// cardinality stats must break the tie toward the atom with the
// smaller expected candidate set, and the probe column must be the
// determined column with the highest distinct-value fanout.
func TestOrderPrefersSelectiveAtom(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("Big", "x", "w")
	s.MustAddRelation("Small", "x", "v")
	st := storage.NewStore(s)
	for i := 0; i < 200; i++ {
		st.Load(model.NewTuple("Big", c(fmt.Sprintf("x%d", i%4)), c(fmt.Sprintf("w%d", i))))
	}
	for i := 0; i < 8; i++ {
		st.Load(model.NewTuple("Small", c(fmt.Sprintf("x%d", i%4)), c(fmt.Sprintf("v%d", i))))
	}
	m := tgd.New("sel",
		[]tgd.Atom{
			tgd.NewAtom("Big", tgd.V("x"), tgd.V("w")),
			tgd.NewAtom("Small", tgd.V("x"), tgd.V("v")),
		},
		[]tgd.Atom{tgd.NewAtom("Out", tgd.V("w"), tgd.V("v"))})
	p := PlanFor(m)
	// Seed binds x (slot 0): both atoms have one determined column, so
	// the expected candidate count decides — Small (8/4 = 2 rows per
	// bucket) before Big (200/4 = 50).
	ord := p.orderFor(st.Snap(1), false, slotSet{0b001})
	if ord.steps[0].atom != 1 || ord.steps[1].atom != 0 {
		t.Fatalf("order = %+v, want Small (atom 1) first", ord.steps)
	}
	// Both steps probe column 0, the only determined position; each
	// compares its first column and binds its second.
	if ord.steps[0].probe != 0 || ord.steps[1].probe != 0 || !slices.Equal(ord.binds, slotSet{0b1010}) {
		t.Fatalf("steps %+v binds %b, want probe 0 twice and binds 1010", ord.steps, ord.binds)
	}
}

// TestViolationRenderSlotOrder: violation keys and strings render
// variables in the plan's slot order — LHS first-occurrence — not
// re-sorted alphabetically per call.
func TestViolationRenderSlotOrder(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("A", "p", "q")
	s.MustAddRelation("B", "p")
	st := storage.NewStore(s)
	st.Load(model.NewTuple("A", c("1"), c("2")))
	// Variable names chosen so sorted order (b1, z0) differs from slot
	// order (z0, b1).
	m := tgd.New("ord",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("z0"), tgd.V("b1"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("z0"))})
	e := NewEngine(st.Snap(1))
	vs := e.Violations(m)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	str := vs[0].String()
	if !strings.Contains(str, "{z0->1, b1->2}") {
		t.Fatalf("violation string %q not in slot order", str)
	}
	if key := vs[0].Key(); !strings.Contains(key, "{z0->1, b1->2}") {
		t.Fatalf("violation key %q not in slot order", key)
	}
}

// TestSigAndKeyBuildersAllocFree pins the pooled builders behind
// Violation.Key and Engine.AppendWitnessSig: rendering into a warmed
// buffer allocates nothing, so the only steady-state cost of a key is
// the final string the caller keeps, and a signature has none.
func TestSigAndKeyBuildersAllocFree(t *testing.T) {
	st, m := benchWorld(&testing.B{}, 100)
	e := NewEngine(st.Snap(1))
	vs := e.Violations(m)
	if len(vs) == 0 {
		t.Fatal("need a violation to render")
	}
	v := &vs[0]
	sig := e.AppendWitnessSig(nil, v) // warm the buffer and renBuf
	buf := v.AppendKey(nil)
	got := testing.AllocsPerRun(200, func() {
		sig = e.AppendWitnessSig(sig[:0], v)
	})
	if got != 0 {
		t.Fatalf("AppendWitnessSig allocates %.1f times per op, want 0", got)
	}
	got = testing.AllocsPerRun(200, func() {
		buf = v.AppendKey(buf[:0])
	})
	if got != 0 {
		t.Fatalf("AppendKey allocates %.1f times per op, want 0", got)
	}
}
