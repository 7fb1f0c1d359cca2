package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// decodeRow reads a fuzzed row: fields separated by '|', the first the
// relation, each later one a value — a null for "?" and an integer, a
// constant otherwise.
func decodeRow(spec string) model.Tuple {
	fields := strings.Split(spec, "|")
	row := model.Tuple{Rel: fields[0]}
	for _, f := range fields[1:] {
		if id, err := strconv.ParseInt(strings.TrimPrefix(f, "?"), 10, 64); err == nil && strings.HasPrefix(f, "?") {
			row.Vals = append(row.Vals, model.Null(id))
		} else {
			row.Vals = append(row.Vals, model.Const(f))
		}
	}
	return row
}

// compareRows orders two rows exactly as bytes.Compare orders their
// Tuple.Keys, without rendering either key: the relations as comparePart
// compares key parts, then the values as the engine's answers order
// them (compareVals).
func compareRows(a, b model.Tuple) int {
	if a.Rel != b.Rel {
		return comparePart(a.Rel, b.Rel, len(a.Vals) > 0, len(b.Vals) > 0)
	}
	return compareVals(a.Vals, b.Vals)
}

// FuzzRowOrder holds the structural row order to the order of the rows'
// rendered keys: compareRows must agree in sign with strings.Compare of
// the two Tuple.Keys, whatever the relations, widths, NUL bytes and
// null identifiers.
func FuzzRowOrder(f *testing.F) {
	for _, p := range [][2]string{
		{"q|a\x00cb", "q|a"},
		{"q|a\x00cb", "q|ab"},
		{"q|a\x00cb", "q|a|b"},
		{"q|a\x00cb|x", "q|a|b"},
		{"q|", "q"},
		{"q|", "q|a"},
		{"q||x", "q|"},
		{"q|?9", "q|?10"},
		{"q|?9|a", "q|?10"},
		{"q|?-3", "q|?3"},
		{"q|x", "q|?1"},
		{"q|x1", "q|?1"},
		{"q\x00", "q|a"},
		{"ab", "a|x"},
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := decodeRow(a), decodeRow(b)
		want := strings.Compare(ra.Key(), rb.Key())
		for _, got := range []int{compareRows(ra, rb), -compareRows(rb, ra)} {
			if sign(got) != want {
				t.Fatalf("compareRows(%q, %q) = %d, keys compare %d", ra.Key(), rb.Key(), got, want)
			}
		}
	})
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// scratchWorld holds relations of widths one to four, one of them
// empty, with shared labeled nulls, and Big, whose full scan answers
// with 1,100 distinct rows.
func scratchWorld(t *testing.T) (*storage.Store, *model.Schema) {
	t.Helper()
	s := model.NewSchema()
	s.MustAddRelation("P", "a")
	s.MustAddRelation("Q", "a", "b")
	s.MustAddRelation("W", "a", "b", "c", "d")
	s.MustAddRelation("E", "a", "b")
	s.MustAddRelation("Big", "a", "b")
	st := storage.NewStore(s)
	load := func(tp model.Tuple) {
		t.Helper()
		if _, err := st.Load(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		load(tup("P", c(fmt.Sprint("p", i%10))))
	}
	load(tup("P", n(1)))
	for i := 0; i < 40; i++ {
		b := c(fmt.Sprint("p", i%7))
		if i%9 == 0 {
			b = n(int64(1 + i%2))
		}
		load(tup("Q", c(fmt.Sprint("p", i%10)), b))
	}
	load(tup("Q", c("p3"), c("p3")))
	load(tup("Q", n(1), n(1)))
	for i := 0; i < 30; i++ {
		load(tup("W", c(fmt.Sprint("p", i%10)), c(fmt.Sprint("p", i%7)), c(fmt.Sprint("w", i%4)), c("a\x00b")))
	}
	for i := 0; i < 1100; i++ {
		load(tup("Big", c(fmt.Sprint("k", i)), c(fmt.Sprint("v", i%3))))
	}
	return st, s
}

// scratchQueries vary atom count, width and head size, and include an
// empty head, repeated variables, a constant and bodies over an empty
// relation.
func scratchQueries() []*CQ {
	V := tgd.V
	return []*CQ{
		q("empty_head", nil, tgd.NewAtom("P", V("x"))),
		q("one", []string{"x"}, tgd.NewAtom("P", V("x"))),
		q("join", []string{"y", "x"}, tgd.NewAtom("P", V("x")), tgd.NewAtom("Q", V("x"), V("y"))),
		q("wide", []string{"d", "a", "c"},
			tgd.NewAtom("W", V("a"), V("b"), V("c"), V("d")),
			tgd.NewAtom("Q", V("b"), V("a")), tgd.NewAtom("P", V("a"))),
		q("none", []string{"x"}, tgd.NewAtom("E", V("x"), V("y"))),
		q("join_none", []string{"x"}, tgd.NewAtom("P", V("x")), tgd.NewAtom("E", V("x"), V("y"))),
		q("const", []string{"y"}, tgd.NewAtom("Q", tgd.C("p3"), V("y"))),
		q("diag", []string{"x"}, tgd.NewAtom("Q", V("x"), V("x"))),
	}
}

// TestCertainAnswersScratchReuse runs queries of every shape through
// one warm engine, in several orders and interleaving certain with
// best-effort answers, and holds each answer to the reference's. Every
// answer leaves the unification trail empty and keeps none of its
// values. Rows of an answer share one array but not capacity, and an
// answer larger than the kept-buffer bounds leaves the engine keeping
// none of its buffers and no value of it.
func TestCertainAnswersScratchReuse(t *testing.T) {
	st, _ := scratchWorld(t)
	snap := st.Snap(1)
	e, ref := NewEngine(snap), refEngine{snap: snap}
	qs := scratchQueries()
	order := slices.Clone(qs)
	slices.Reverse(order)
	type semantics struct {
		name     string
		got, ref func(*CQ) []model.Tuple
	}
	certain := semantics{"certain", e.CertainAnswers, ref.CertainAnswers}
	best := semantics{"best-effort", e.BestEffortAnswers, ref.BestEffortAnswers}
	for round, list := range [][]*CQ{qs, order, qs} {
		for i, qq := range list {
			sems := []semantics{certain, best}
			if (round+i)%2 == 1 {
				sems[0], sems[1] = best, certain
			}
			for _, sem := range sems {
				if g, w := rowKeys(sem.got(qq)), rowKeys(sem.ref(qq)); !equalStrs(g, w) {
					t.Fatalf("round %d, %s %s: engine %q, reference %q", round, sem.name, qq, g, w)
				}
				if len(e.cq.trail) != 0 {
					t.Fatalf("round %d, %s %s: trail holds %d pairs after the answer", round, sem.name, qq, len(e.cq.trail))
				}
				for j, u := range e.cq.trail[:cap(e.cq.trail)] {
					if u != (nullRep{}) {
						t.Fatalf("round %d, %s %s: kept trail pair %d is %v", round, sem.name, qq, j, u)
					}
				}
			}
		}
	}
	for _, empty := range qs[4:6] {
		if got := e.CertainAnswers(empty); got != nil {
			t.Errorf("%s: answer %v, want nil", empty, got)
		}
		if got := e.BestEffortAnswers(empty); got != nil {
			t.Errorf("%s: best-effort answer %v, want nil", empty, got)
		}
	}

	rows := e.CertainAnswers(qs[2])
	if len(rows) < 2 {
		t.Fatalf("join: %d rows, want at least 2", len(rows))
	}
	next := slices.Clone(rows[1].Vals)
	for i, r := range rows {
		if cap(r.Vals) != len(r.Vals) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(r.Vals), len(r.Vals))
		}
	}
	_ = append(rows[0].Vals, c("appended"))
	if !slices.Equal(rows[1].Vals, next) {
		t.Fatalf("appending to row 0 changed row 1: %v, was %v", rows[1].Vals, next)
	}

	keptClear := func(when string) {
		t.Helper()
		if cap(e.cq.vals) > maxKeptVals || cap(e.cq.perm) > maxKeptRows {
			t.Fatalf("%s: engine keeps %d values and %d row slots, bounds %d and %d",
				when, cap(e.cq.vals), cap(e.cq.perm), maxKeptVals, maxKeptRows)
		}
		for i, v := range e.cq.vals[:cap(e.cq.vals)] {
			if v != (model.Value{}) {
				t.Fatalf("%s: kept value %d is %v", when, i, v)
			}
		}
	}
	keptClear("after a small answer")
	e.BestEffortAnswers(qs[3])
	keptClear("after a small best-effort answer")
	big := q("big", []string{"x", "y"}, tgd.NewAtom("Big", tgd.V("x"), tgd.V("y")))
	if got := e.BestEffortAnswers(big); len(got) != 1100 {
		t.Fatalf("big best-effort: %d rows, want 1100", len(got))
	}
	keptClear("after a 1,100-row best-effort answer")
	if got := e.CertainAnswers(big); len(got) != 1100 {
		t.Fatalf("big: %d rows, want 1100", len(got))
	}
	keptClear("after a 1,100-row answer")
	if e.cq.vals != nil || e.cq.perm != nil {
		t.Fatalf("after a 1,100-row answer the engine keeps buffers of cap %d and %d",
			cap(e.cq.vals), cap(e.cq.perm))
	}
	if g, w := rowKeys(e.CertainAnswers(qs[3])), rowKeys(ref.CertainAnswers(qs[3])); !equalStrs(g, w) {
		t.Fatalf("after the big answer, %s: engine %q, reference %q", qs[3], g, w)
	}
}

// TestCertainAnswersAllocs pins what a warm engine allocates for a
// certain or best-effort answer: the rows and one array of their
// values, and nothing at all for an empty answer — the plan, join
// order, unification trail, packed rows and sort permutation are
// engine scratch.
func TestCertainAnswersAllocs(t *testing.T) {
	st, schema := scratchWorld(t)
	e := NewEngine(st.Snap(1))
	qs := scratchQueries()
	for _, qq := range qs { // warm the scratch on every shape
		e.CertainAnswers(qq)
		e.BestEffortAnswers(qq)
	}
	for _, tc := range []struct {
		q     *CQ
		bound float64
	}{
		{qs[2], 2}, // join
		{qs[3], 2}, // wide
		{qs[0], 2}, // empty head
		{qs[4], 0}, // empty relation
		{qs[5], 0}, // join with an empty relation
	} {
		if a := testing.AllocsPerRun(100, func() { e.CertainAnswers(tc.q) }); a > tc.bound {
			t.Errorf("%s: %.1f allocs per answer, want at most %.0f", tc.q, a, tc.bound)
		}
		if a := testing.AllocsPerRun(100, func() { e.BestEffortAnswers(tc.q) }); a > tc.bound {
			t.Errorf("%s: %.1f allocs per best-effort answer, want at most %.0f", tc.q, a, tc.bound)
		}
	}
	valid := qs[3]
	if a := testing.AllocsPerRun(100, func() {
		if err := valid.Validate(schema); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Validate of a valid query: %.1f allocs, want 0", a)
	}
}
