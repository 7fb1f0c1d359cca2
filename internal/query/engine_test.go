package query

import (
	"slices"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

// fig2 builds the Figure 2 repository: schema, mappings σ1–σ4, and the
// example data (satisfying all mappings).
func fig2(t *testing.T) (*storage.Store, *tgd.Set) {
	t.Helper()
	s := model.NewSchema()
	s.MustAddRelation("C", "city")
	s.MustAddRelation("S", "code", "location", "city_served")
	s.MustAddRelation("A", "location", "name")
	s.MustAddRelation("T", "attraction", "company", "tour_start")
	s.MustAddRelation("R", "company", "attraction", "review")
	s.MustAddRelation("V", "city", "convention")
	s.MustAddRelation("E", "convention", "attraction")

	sigma1 := tgd.New("sigma1",
		[]tgd.Atom{tgd.NewAtom("C", tgd.V("c"))},
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("a"), tgd.V("l"), tgd.V("c"))})
	sigma2 := tgd.New("sigma2",
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("a"), tgd.V("l"), tgd.V("c"))},
		[]tgd.Atom{tgd.NewAtom("C", tgd.V("l")), tgd.NewAtom("C", tgd.V("c"))})
	sigma3 := tgd.New("sigma3",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("l"), tgd.V("n")),
			tgd.NewAtom("T", tgd.V("n"), tgd.V("co"), tgd.V("st"))},
		[]tgd.Atom{tgd.NewAtom("R", tgd.V("co"), tgd.V("n"), tgd.V("r"))})
	sigma4 := tgd.New("sigma4",
		[]tgd.Atom{tgd.NewAtom("V", tgd.V("ci"), tgd.V("x")),
			tgd.NewAtom("T", tgd.V("n"), tgd.V("co"), tgd.V("ci"))},
		[]tgd.Atom{tgd.NewAtom("E", tgd.V("x"), tgd.V("n"))})
	set := tgd.MustNewSet(sigma1, sigma2, sigma3, sigma4)
	if err := set.Validate(s); err != nil {
		t.Fatal(err)
	}

	st := storage.NewStore(s)
	load := func(tp model.Tuple) {
		t.Helper()
		if _, err := st.Load(tp); err != nil {
			t.Fatal(err)
		}
	}
	load(tup("C", c("Ithaca")))
	load(tup("C", c("Syracuse")))
	load(tup("S", c("SYR"), c("Syracuse"), c("Syracuse")))
	load(tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	load(tup("A", c("Geneva"), c("Geneva Winery")))
	load(tup("A", c("Niagara Falls"), c("Niagara Falls")))
	load(tup("T", c("Geneva Winery"), c("XYZ"), c("Syracuse")))
	load(tup("T", c("Niagara Falls"), n(1), c("Toronto")))
	load(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!")))
	load(tup("R", n(1), c("Niagara Falls"), n(2)))
	load(tup("V", c("Syracuse"), c("Science Conf")))
	load(tup("E", c("Science Conf"), c("Geneva Winery")))
	return st, set
}

func engineAt(st *storage.Store, reader int) *Engine {
	return NewEngine(st.Snap(reader))
}

func TestFigure2InitiallySatisfied(t *testing.T) {
	st, set := fig2(t)
	e := engineAt(st, 0)
	if vs := e.AllViolations(set); len(vs) != 0 {
		t.Fatalf("initial database must satisfy all mappings, got %v", vs)
	}
	if len(e.AllViolations(set)) != 0 {
		t.Fatal("Satisfied = false on a satisfying database")
	}
}

// val returns the value a violation carries for one LHS variable.
func val(v Violation, name string) model.Value {
	return v.Vals[slices.Index(PlanFor(v.TGD).Slots(), name)]
}

// noReviews returns an engine over the Figure 2 data with both R tuples
// deleted, so that every LHS match of sigma3 is a violation, and sigma3.
func noReviews(t *testing.T) (*Engine, *tgd.TGD) {
	t.Helper()
	st, set := fig2(t)
	for _, r := range []model.Tuple{
		tup("R", c("XYZ"), c("Geneva Winery"), c("Great!")),
		tup("R", n(1), c("Niagara Falls"), n(2)),
	} {
		if recs, err := st.DeleteContent(1, r); err != nil || len(recs) != 1 {
			t.Fatalf("delete %s: %v %v", r, recs, err)
		}
	}
	sigma3, _ := set.ByName("sigma3")
	return engineAt(st, 1), sigma3
}

func TestLHSMatches(t *testing.T) {
	e, sigma3 := noReviews(t)
	vs := e.Violations(sigma3)
	// Two A⋈T pairs exist: Geneva Winery/XYZ and Niagara Falls/x1.
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2: %v", len(vs), vs)
	}
	names := map[model.Value]bool{}
	for _, v := range vs {
		if len(v.Witness) != 2 || len(v.Vals) != 4 {
			t.Fatalf("witness %v, values %v: want 2 and 4", v.Witness, v.Vals)
		}
		names[val(v, "n")] = true
	}
	if !names[c("Geneva Winery")] || !names[c("Niagara Falls")] {
		t.Fatalf("violations = %v", vs)
	}
}

func TestLHSMatchesSeeded(t *testing.T) {
	e, sigma3 := noReviews(t)
	vs := e.ViolationsSeeded(sigma3, "T", []model.Value{c("Geneva Winery"), c("XYZ"), c("Syracuse")}, SeedLHS)
	if len(vs) != 1 || val(vs[0], "n") != c("Geneva Winery") || val(vs[0], "l") != c("Geneva") {
		t.Fatalf("seeded violations = %v", vs)
	}
}

func TestLHSMatchesNullsAreValues(t *testing.T) {
	e, sigma3 := noReviews(t)
	// Labeled null x1 is a regular value: a seed carrying co = x1
	// matches the Niagara Falls row.
	vs := e.ViolationsSeeded(sigma3, "T", []model.Value{c("Niagara Falls"), n(1), c("Toronto")}, SeedLHS)
	if len(vs) != 1 || val(vs[0], "co") != n(1) || val(vs[0], "n") != c("Niagara Falls") {
		t.Fatalf("null-seeded violations = %v", vs)
	}
	// A constant "x1" does not match the null x1.
	vs = e.ViolationsSeeded(sigma3, "T", []model.Value{c("Niagara Falls"), c("x1"), c("Toronto")}, SeedLHS)
	if len(vs) != 0 {
		t.Fatalf("constant must not match null: %v", vs)
	}
}

func TestRHSSatisfied(t *testing.T) {
	st, set := fig2(t)
	sigma1, _ := set.ByName("sigma1")
	if _, _, _, err := st.Insert(1, tup("C", c("Boston"))); err != nil {
		t.Fatal(err)
	}
	e := engineAt(st, 1)
	if vs := e.ViolationsSeeded(sigma1, "C", []model.Value{c("Ithaca")}, SeedLHS); len(vs) != 0 {
		t.Fatalf("Ithaca has a suggested airport: %v", vs)
	}
	if vs := e.ViolationsSeeded(sigma1, "C", []model.Value{c("Boston")}, SeedLHS); len(vs) != 1 {
		t.Fatalf("Boston must have no airport: %v", vs)
	}
}

func TestViolationInsertExample11(t *testing.T) {
	// Example 1.1: inserting T(Niagara Falls, ABC Tours, x?) violates
	// sigma3 — R has no (ABC Tours, Niagara Falls) review.
	st, set := fig2(t)
	_, w, ins, err := st.Insert(1, tup("T", c("Niagara Falls"), c("ABC Tours"), n(5)))
	if err != nil || !ins {
		t.Fatalf("insert: %v %v", ins, err)
	}
	e := engineAt(st, 1)
	sigma3, _ := set.ByName("sigma3")
	vs := e.ViolationsSeeded(sigma3, w.Rel, w.After, SeedLHS)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	v := vs[0]
	if val(v, "co") != c("ABC Tours") || val(v, "n") != c("Niagara Falls") {
		t.Fatalf("values = %v", v)
	}
	// Reader 0 must not see the violation.
	if vs := engineAt(st, 0).ViolationsSeeded(sigma3, w.Rel, w.After, SeedLHS); len(vs) != 0 {
		t.Fatalf("reader 0 sees %v", vs)
	}
}

func TestViolationDeleteExample23(t *testing.T) {
	// Example 2.3: deleting R(XYZ, Geneva Winery, Great!) violates
	// sigma3 with witness {A(Geneva, Geneva Winery), T(Geneva Winery, XYZ, Syracuse)}.
	st, set := fig2(t)
	recs, err := st.DeleteContent(1, tup("R", c("XYZ"), c("Geneva Winery"), c("Great!")))
	if err != nil || len(recs) != 1 {
		t.Fatalf("delete: %v %v", recs, err)
	}
	e := engineAt(st, 1)
	sigma3, _ := set.ByName("sigma3")
	vs := e.ViolationsSeeded(sigma3, recs[0].Rel, recs[0].Before, SeedRHS)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if len(vs[0].Witness) != 2 {
		t.Fatalf("witness = %v", vs[0].Witness)
	}
	snap := st.Snap(1)
	w0, _ := snap.GetTuple(vs[0].Witness[0])
	w1, _ := snap.GetTuple(vs[0].Witness[1])
	if w0.Rel != "A" || w1.Rel != "T" {
		t.Fatalf("witness tuples = %s, %s", w0, w1)
	}
}

func TestViolationsSeededDedup(t *testing.T) {
	// sigma2 has C on the RHS twice; a C write must not produce
	// duplicate violations.
	st, set := fig2(t)
	sigma2, _ := set.ByName("sigma2")
	// Delete C(Syracuse): S(SYR, Syracuse, *) loses both its RHS
	// supports (l=Syracuse and c=Syracuse for one row).
	recs, _ := st.DeleteContent(1, tup("C", c("Syracuse")))
	if len(recs) != 1 {
		t.Fatalf("recs = %v", recs)
	}
	vs := engineAt(st, 1).ViolationsSeeded(sigma2, recs[0].Rel, recs[0].Before, SeedRHS)
	keys := make(map[string]bool)
	for i := range vs {
		k := vs[i].Key()
		if keys[k] {
			t.Fatalf("duplicate violation %s", k)
		}
		keys[k] = true
	}
	// Both S rows lose their support (l = Syracuse appears in both).
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
}

// TestViolationsSeededDedupAllocFree: the sigma2 query of
// TestViolationsSeededDedup finds S(SYR, Syracuse, Syracuse) through
// both RHS atoms. Warm, appending into a reused array, it allocates
// each of its two violations' Vals and Witness and nothing for
// rejecting the duplicate.
func TestViolationsSeededDedupAllocFree(t *testing.T) {
	st, set := fig2(t)
	sigma2, _ := set.ByName("sigma2")
	recs, _ := st.DeleteContent(1, tup("C", c("Syracuse")))
	e := engineAt(st, 1)
	var vs []Violation
	run := func() { vs = e.AppendViolationsSeeded(vs[:0], sigma2, recs[0].Rel, recs[0].Before, SeedRHS) }
	run()
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	if got := testing.AllocsPerRun(100, run); got != 4 {
		t.Errorf("%.1f allocations per warm query, want 4 (two violations' Vals and Witness)", got)
	}
}

func TestSelfJoinMatching(t *testing.T) {
	// Mapping with a repeated variable: S(a, x, x) requires
	// location == city_served.
	s := model.NewSchema()
	s.MustAddRelation("S", "code", "location", "city")
	s.MustAddRelation("C", "city")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("a"), tgd.V("x"), tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("C", tgd.V("x"))})
	st := storage.NewStore(s)
	st.Load(tup("S", c("SYR"), c("Syracuse"), c("Syracuse")))
	st.Load(tup("S", c("JFK"), c("NYC"), c("Ithaca")))
	// C is empty, so every LHS match is a violation.
	vs := engineAt(st, 0).Violations(m)
	if len(vs) != 1 || val(vs[0], "x") != c("Syracuse") {
		t.Fatalf("matches = %v", vs)
	}
}

func TestConstantInAtom(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("T", "attraction", "company", "start")
	s.MustAddRelation("C", "city")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("T", tgd.V("n"), tgd.C("XYZ"), tgd.V("s"))},
		[]tgd.Atom{tgd.NewAtom("C", tgd.V("s"))})
	st := storage.NewStore(s)
	st.Load(tup("T", c("Winery"), c("XYZ"), c("Syracuse")))
	st.Load(tup("T", c("Falls"), c("ABC"), c("Toronto")))
	vs := engineAt(st, 0).Violations(m)
	if len(vs) != 1 || val(vs[0], "s") != c("Syracuse") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestInstantiateRHS(t *testing.T) {
	st, set := fig2(t)
	sigma1, _ := set.ByName("sigma1")
	minted := []model.Value{model.Null(101), model.Null(102)}
	tuples := InstantiateRHS(sigma1, []model.Value{c("NYC")}, minted, nil)
	if len(tuples) != 1 {
		t.Fatalf("tuples = %v", tuples)
	}
	got := tuples[0]
	if got.Rel != "S" || got.Vals[2] != c("NYC") {
		t.Fatalf("instantiated = %s", got)
	}
	if !got.Vals[0].IsNull() || !got.Vals[1].IsNull() || got.Vals[0] == got.Vals[1] {
		t.Fatalf("existentials must be distinct fresh nulls: %s", got)
	}
	if !slices.Contains(minted, got.Vals[0]) || !slices.Contains(minted, got.Vals[1]) {
		t.Fatalf("instantiated = %s, want the nulls %v", got, minted)
	}
	_ = st
}

func TestInstantiateRHSSharedExistentials(t *testing.T) {
	// Genealogy tgd: Person(x) -> exists y: Father(x,y) & Person(y).
	// The two RHS atoms must share one fresh null for y.
	s := model.NewSchema()
	s.MustAddRelation("Person", "name")
	s.MustAddRelation("Father", "child", "father")
	gen := tgd.New("gen",
		[]tgd.Atom{tgd.NewAtom("Person", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("Father", tgd.V("x"), tgd.V("y")),
			tgd.NewAtom("Person", tgd.V("y"))})
	tuples := InstantiateRHS(gen, []model.Value{c("John")}, []model.Value{model.Null(1)}, nil)
	if len(tuples) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	if tuples[0].Vals[1] != tuples[1].Vals[0] {
		t.Fatalf("shared existential broken: %s vs %s", tuples[0], tuples[1])
	}
	if tuples[0].Vals[0] != c("John") {
		t.Fatalf("frontier var not substituted: %s", tuples[0])
	}
}

func TestViolationKeyStable(t *testing.T) {
	st, set := fig2(t)
	st.DeleteContent(1, tup("R", c("XYZ"), c("Geneva Winery"), c("Great!")))
	sigma3, _ := set.ByName("sigma3")
	a := engineAt(st, 1).Violations(sigma3)
	b := engineAt(st, 1).Violations(sigma3)
	if len(a) != 1 || len(b) != 1 || a[0].Key() != b[0].Key() {
		t.Fatalf("keys unstable: %v vs %v", a, b)
	}
	if a[0].String() == "" {
		t.Fatal("String empty")
	}
}
