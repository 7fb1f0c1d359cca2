package query

import (
	"sort"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func cqWorld(t *testing.T) *storage.Store {
	t.Helper()
	s := model.NewSchema()
	s.MustAddRelation("T", "attraction", "company", "start")
	s.MustAddRelation("R", "company", "attraction", "review")
	st := storage.NewStore(s)
	load := func(tp model.Tuple) {
		t.Helper()
		if _, err := st.Load(tp); err != nil {
			t.Fatal(err)
		}
	}
	load(tup("T", c("Winery"), c("XYZ"), c("Syracuse")))
	load(tup("T", c("Falls"), n(1), c("Toronto"))) // unknown company x1
	load(tup("R", c("XYZ"), c("Winery"), c("Great!")))
	load(tup("R", n(1), c("Falls"), n(2))) // review by the same unknown company
	return st
}

func q(name string, head []string, body ...tgd.Atom) *CQ {
	return &CQ{Name: name, Head: head, Body: body}
}

func TestCertainAnswersGroundOnly(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	// Which companies run tours? x1 is unknown, so only XYZ is certain.
	companies := q("companies", []string{"co"},
		tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s")))
	got := e.CertainAnswers(companies)
	if len(got) != 1 || got[0].Vals[0] != c("XYZ") {
		t.Fatalf("certain = %v", got)
	}
}

func TestCertainAnswersJoinThroughNull(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	// Which attractions have a review by their tour company? The
	// Falls row joins through x1 = x1 — a certain fact even though the
	// company is unknown (nulls join by identity in naive tables).
	reviewed := q("reviewed", []string{"a"},
		tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s")),
		tgd.NewAtom("R", tgd.V("co"), tgd.V("a"), tgd.V("r")))
	got := e.CertainAnswers(reviewed)
	if len(got) != 2 {
		t.Fatalf("certain = %v (the x1 join is certain!)", got)
	}
}

func TestBestEffortIncludesNullRows(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	companies := q("companies", []string{"co"},
		tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s")))
	got := e.BestEffortAnswers(companies)
	if len(got) != 2 {
		t.Fatalf("best-effort = %v", got)
	}
	hasNull := false
	for _, row := range got {
		if row.Vals[0].IsNull() {
			hasNull = true
		}
	}
	if !hasNull {
		t.Fatalf("best-effort must surface the unknown company: %v", got)
	}
}

func TestBestEffortUnifiesNullWithConstant(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	// Does ABC run any tour? Certainly not (no ground row), but the
	// unknown company x1 COULD be ABC — best effort reports the Falls
	// tour as potentially relevant.
	abc := q("abc_tours", []string{"a"},
		tgd.NewAtom("T", tgd.V("a"), tgd.C("ABC"), tgd.V("s")))
	if got := e.CertainAnswers(abc); len(got) != 0 {
		t.Fatalf("certain = %v", got)
	}
	got := e.BestEffortAnswers(abc)
	if len(got) != 1 || got[0].Vals[0] != c("Falls") {
		t.Fatalf("best-effort = %v", got)
	}
}

func TestBestEffortUnificationIsConsistent(t *testing.T) {
	// Within one answer, a null unifies with only one constant: asking
	// for a company that is simultaneously ABC and DEF can never match
	// through x1.
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	contradiction := q("contra", []string{"a"},
		tgd.NewAtom("T", tgd.V("a"), tgd.C("ABC"), tgd.V("s")),
		tgd.NewAtom("R", tgd.C("DEF"), tgd.V("a"), tgd.V("r")))
	if got := e.BestEffortAnswers(contradiction); len(got) != 0 {
		t.Fatalf("inconsistent unification accepted: %v", got)
	}
	// But the SAME constant on both sides unifies fine through x1.
	consistent := q("consist", []string{"a"},
		tgd.NewAtom("T", tgd.V("a"), tgd.C("ABC"), tgd.V("s")),
		tgd.NewAtom("R", tgd.C("ABC"), tgd.V("a"), tgd.V("r")))
	got := e.BestEffortAnswers(consistent)
	if len(got) != 1 || got[0].Vals[0] != c("Falls") {
		t.Fatalf("consistent unification missing: %v", got)
	}
}

func TestBestEffortSupersetOfCertain(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	queries := []*CQ{
		q("q1", []string{"co"}, tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s"))),
		q("q2", []string{"a", "r"},
			tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s")),
			tgd.NewAtom("R", tgd.V("co"), tgd.V("a"), tgd.V("r"))),
	}
	for _, qq := range queries {
		certain := e.CertainAnswers(qq)
		best := e.BestEffortAnswers(qq)
		bestSet := map[string]bool{}
		for _, row := range best {
			bestSet[row.Key()] = true
		}
		for _, row := range certain {
			if !bestSet[row.Key()] {
				t.Fatalf("%s: certain answer %v missing from best-effort %v", qq.Name, row, best)
			}
		}
	}
}

func TestCQValidate(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("T", "a", "b")
	cases := []struct {
		name string
		q    *CQ
	}{
		{"unnamed", q("", []string{"x"}, tgd.NewAtom("T", tgd.V("x"), tgd.V("y")))},
		{"empty body", q("q", []string{"x"})},
		{"unsafe head", q("q", []string{"z"}, tgd.NewAtom("T", tgd.V("x"), tgd.V("y")))},
		{"bad arity", q("q", []string{"x"}, tgd.NewAtom("T", tgd.V("x")))},
		{"unknown rel", q("q", []string{"x"}, tgd.NewAtom("Z", tgd.V("x")))},
		{"dup head", q("q", []string{"x", "x"}, tgd.NewAtom("T", tgd.V("x"), tgd.V("y")))},
	}
	for _, tc := range cases {
		if err := tc.q.Validate(s); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	good := q("q", []string{"x", "y"}, tgd.NewAtom("T", tgd.V("x"), tgd.V("y")))
	if err := good.Validate(s); err != nil {
		t.Fatal(err)
	}
	if good.String() != "q(x, y) <- T(x, y)" {
		t.Fatalf("String = %q", good.String())
	}
}

func TestCQAnswersDeterministic(t *testing.T) {
	st := cqWorld(t)
	e := NewEngine(st.Snap(0))
	qq := q("q", []string{"co", "a"},
		tgd.NewAtom("T", tgd.V("a"), tgd.V("co"), tgd.V("s")))
	first := e.BestEffortAnswers(qq)
	for i := 0; i < 5; i++ {
		again := e.BestEffortAnswers(qq)
		if len(again) != len(first) {
			t.Fatal("nondeterministic answer count")
		}
		for j := range again {
			if !again[j].Equal(first[j]) {
				t.Fatal("nondeterministic answer order")
			}
		}
	}
}

// TestDedupSortOrderAndDistinctRows: dedupSort renders each key once and
// must still return what the render-per-comparison form returned — the
// distinct rows in Key order — including rows whose constants contain
// the key separator (two such rows rendered alike, and one was dropped,
// before Tuple.Key escaped it).
func TestDedupSortOrderAndDistinctRows(t *testing.T) {
	rows := []model.Tuple{
		tup("q", c("b"), n(2)),
		tup("q", c("a\x00cb"), c("x")),
		tup("q", c("a"), c("b\x00cx")),
		tup("q", c("b"), n(2)),
		tup("q", c("a"), c("b")),
		tup("q", n(10), c("a")),
		tup("q", c("a"), c("b")),
		tup("q", n(9), c("a")),
	}
	var want []model.Tuple
	seen := make(map[string]bool)
	for _, r := range rows {
		if !seen[r.Key()] {
			seen[r.Key()] = true
			want = append(want, r)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
	if len(want) != 6 {
		t.Fatalf("%d distinct rows by key, want 6", len(want))
	}
	got := dedupSort(append([]model.Tuple(nil), rows...))
	if len(got) != len(want) {
		t.Fatalf("dedupSort kept %d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d is %s, want %s", i, got[i], want[i])
		}
	}
}
