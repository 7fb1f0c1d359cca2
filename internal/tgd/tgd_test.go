package tgd

import (
	"strings"
	"testing"

	"youtopia/internal/model"
)

// figure2Schema builds the schema of the paper's Figure 2 repository.
func figure2Schema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("C", "city")
	s.MustAddRelation("S", "code", "location", "city_served")
	s.MustAddRelation("A", "location", "name")
	s.MustAddRelation("T", "attraction", "company", "tour_start")
	s.MustAddRelation("R", "company", "attraction", "review")
	s.MustAddRelation("V", "city", "convention")
	s.MustAddRelation("E", "convention", "attraction")
	return s
}

// figure2Mappings builds σ1–σ4 from Figure 2.
func figure2Mappings() *Set {
	sigma1 := New("sigma1",
		[]Atom{NewAtom("C", V("c"))},
		[]Atom{NewAtom("S", V("a"), V("l"), V("c"))})
	sigma2 := New("sigma2",
		[]Atom{NewAtom("S", V("a"), V("l"), V("c"))},
		[]Atom{NewAtom("C", V("l")), NewAtom("C", V("c"))})
	sigma3 := New("sigma3",
		[]Atom{NewAtom("A", V("l"), V("n")), NewAtom("T", V("n"), V("c"), V("c2"))},
		[]Atom{NewAtom("R", V("c"), V("n"), V("r"))})
	sigma4 := New("sigma4",
		[]Atom{NewAtom("V", V("c2"), V("x")), NewAtom("T", V("n"), V("c"), V("c2"))},
		[]Atom{NewAtom("E", V("x"), V("n"))})
	return MustNewSet(sigma1, sigma2, sigma3, sigma4)
}

func TestTermString(t *testing.T) {
	if got := V("c").String(); got != "c" {
		t.Fatalf("var term = %q", got)
	}
	if got := C("NYC").String(); got != `"NYC"` {
		t.Fatalf("const term = %q", got)
	}
}

func TestAtomVars(t *testing.T) {
	a := NewAtom("S", V("a"), C("k"), V("a"), V("b"))
	vars := a.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Fatalf("Vars = %v", vars)
	}
	if got := a.String(); got != `S(a, "k", a, b)` {
		t.Fatalf("String = %q", got)
	}
}

func TestTGDVariableClassification(t *testing.T) {
	s := figure2Mappings()
	sigma1, _ := s.ByName("sigma1")
	if got := sigma1.FrontierVars(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("sigma1 frontier = %v", got)
	}
	ex := sigma1.ExistentialVars()
	if len(ex) != 2 || ex[0] != "a" || ex[1] != "l" {
		t.Fatalf("sigma1 existentials = %v", ex)
	}
	if !sigma1.IsExistential("a") || sigma1.IsExistential("c") {
		t.Fatal("IsExistential wrong")
	}
	sigma3, _ := s.ByName("sigma3")
	if got := sigma3.ExistentialVars(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("sigma3 existentials = %v", got)
	}
	fr := sigma3.FrontierVars()
	if len(fr) != 2 || fr[0] != "c" || fr[1] != "n" {
		t.Fatalf("sigma3 frontier = %v", fr)
	}
}

func TestTGDRelations(t *testing.T) {
	s := figure2Mappings()
	sigma3, _ := s.ByName("sigma3")
	rels := sigma3.Relations()
	want := []string{"A", "T", "R"}
	if len(rels) != len(want) {
		t.Fatalf("Relations = %v", rels)
	}
	for i := range want {
		if rels[i] != want[i] {
			t.Fatalf("Relations = %v, want %v", rels, want)
		}
	}
	if !sigma3.UsesRelation("A") || sigma3.UsesRelation("C") {
		t.Fatal("UsesRelation wrong")
	}
	if !sigma3.LHSRelations()["T"] || sigma3.LHSRelations()["R"] {
		t.Fatal("LHSRelations wrong")
	}
	if !sigma3.RHSRelations()["R"] {
		t.Fatal("RHSRelations wrong")
	}

	// Computed once: a self-join or a relation on both sides is listed
	// once, and asking again allocates nothing.
	loop := New("loop",
		[]Atom{NewAtom("E", V("x"), V("y")), NewAtom("E", V("y"), V("z"))},
		[]Atom{NewAtom("E", V("x"), V("z")), NewAtom("P", V("x"))})
	if got := loop.Relations(); len(got) != 2 || got[0] != "E" || got[1] != "P" {
		t.Fatalf("loop.Relations = %v, want [E P]", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sigma3.Relations() }); allocs != 0 {
		t.Fatalf("Relations allocates %.0f per call", allocs)
	}
}

func TestTGDString(t *testing.T) {
	s := figure2Mappings()
	sigma1, _ := s.ByName("sigma1")
	got := sigma1.String()
	if got != "sigma1: C(c) -> exists a, l: S(a, l, c)" {
		t.Fatalf("String = %q", got)
	}
	sigma4, _ := s.ByName("sigma4")
	if strings.Contains(sigma4.String(), "exists") {
		t.Fatalf("sigma4 has no existentials but prints %q", sigma4.String())
	}
}

func TestTGDValidate(t *testing.T) {
	schema := figure2Schema()
	if err := figure2Mappings().Validate(schema); err != nil {
		t.Fatalf("Figure 2 mappings must validate: %v", err)
	}

	bad := New("bad_arity",
		[]Atom{NewAtom("C", V("c"), V("d"))},
		[]Atom{NewAtom("C", V("c"))})
	if err := bad.Validate(schema); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	unknown := New("bad_rel",
		[]Atom{NewAtom("Zzz", V("c"))},
		[]Atom{NewAtom("C", V("c"))})
	if err := unknown.Validate(schema); err == nil {
		t.Fatal("undeclared relation accepted")
	}
	empty := New("bad_empty", nil, []Atom{NewAtom("C", V("c"))})
	if err := empty.Validate(schema); err == nil {
		t.Fatal("empty LHS accepted")
	}
	noName := New("", []Atom{NewAtom("C", V("c"))}, []Atom{NewAtom("C", V("c"))})
	if err := noName.Validate(schema); err == nil {
		t.Fatal("unnamed mapping accepted")
	}
}

func TestSetLookupAndIndexes(t *testing.T) {
	s := figure2Mappings()
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.ByName("sigma2"); !ok {
		t.Fatal("ByName failed")
	}
	// Writes to T can affect the LHS of sigma3 and sigma4.
	lhs := s.WithLHSRelation("T")
	if len(lhs) != 2 {
		t.Fatalf("WithLHSRelation(T) = %v", lhs)
	}
	// Writes to C can affect the RHS of sigma2 only.
	rhs := s.WithRHSRelation("C")
	if len(rhs) != 1 || rhs[0].Name != "sigma2" {
		t.Fatalf("WithRHSRelation(C) = %v", rhs)
	}
	if got := s.WithLHSRelation("E"); len(got) != 0 {
		t.Fatalf("WithLHSRelation(E) = %v", got)
	}
}

func TestSetDuplicateNames(t *testing.T) {
	a := New("m", []Atom{NewAtom("C", V("c"))}, []Atom{NewAtom("C", V("c"))})
	b := New("m", []Atom{NewAtom("C", V("c"))}, []Atom{NewAtom("C", V("c"))})
	if _, err := NewSet(a, b); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestSetPrefix(t *testing.T) {
	s := figure2Mappings()
	p := s.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("Prefix(2).Len = %d", p.Len())
	}
	if _, ok := p.ByName("sigma1"); !ok {
		t.Fatal("prefix lost sigma1")
	}
	if _, ok := p.ByName("sigma3"); ok {
		t.Fatal("prefix kept sigma3")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Prefix beyond size must panic")
		}
	}()
	s.Prefix(99)
}
