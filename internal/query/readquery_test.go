package query

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// answerCanon renders the full answer of the stored query on a
// snapshot, canonically, on a cold engine: the reference the checker's
// in-place comparison (Engine.answerDiffers) is held to.
func (q *ViolationRead) answerCanon(snap *storage.Snapshot) string {
	return renderViolations(q.eval(NewEngine(snap)))
}

// recorded returns the stored answer as violations, in witness order.
func (q *ViolationRead) recorded() []Violation {
	out := make([]Violation, q.answerLen())
	for i := range out {
		vals, witness := q.answerAt(i)
		out[i] = Violation{TGD: q.TGD, Vals: vals, Witness: witness}
	}
	return out
}

// recordedCanon renders the stored answer as answerCanon renders an
// evaluated one.
func (q *ViolationRead) recordedCanon() string { return renderViolations(q.recorded()) }

// renderViolations renders a violation set canonically: the sorted keys,
// joined. It is how a stored read kept its answer before the answer was
// held by reference.
func renderViolations(vs []Violation) string {
	keys := make([]string, len(vs))
	for i := range vs {
		keys[i] = vs[i].Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindViolation:    "violation",
		KindMoreSpecific: "more-specific",
		KindNullOcc:      "null-occurrence",
		KindContent:      "content",
		Kind(9):          "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestViolationReadAffectedByExample31(t *testing.T) {
	// Example 3.1 is the motivating interference: u2 (number 2) reads a
	// violation query over sigma4 after inserting V(Syracuse, Math
	// Conf); u1 (number 1) later deletes T(Geneva Winery, XYZ,
	// Syracuse), which retroactively changes u2's answer.
	st, set := fig2(t)
	sigma4, _ := set.ByName("sigma4")

	// u2 inserts V(Syracuse, Math Conf) and poses its violation query.
	_, wIns, _, err := st.Insert(2, tup("V", c("Syracuse"), c("Math Conf")))
	if err != nil {
		t.Fatal(err)
	}
	q, got := NewViolationRead(NewEngine(st.Snap(2)), sigma4, wIns.Rel, wIns.After, SeedLHS)
	if len(got) != 1 {
		t.Fatalf("u2 must see one violation of sigma4, got %v", got)
	}

	// u1 deletes the witness tuple T(Geneva Winery, XYZ, Syracuse).
	recs, err := st.DeleteContent(1, tup("T", c("Geneva Winery"), c("XYZ"), c("Syracuse")))
	if err != nil || len(recs) != 1 {
		t.Fatalf("delete: %v %v", recs, err)
	}
	if !q.AffectedBy(new(Checker), st, recs[0]) {
		t.Fatal("u1's delete must retroactively change u2's violation query")
	}
}

func TestViolationReadUnaffectedByIrrelevantWrite(t *testing.T) {
	st, set := fig2(t)
	sigma4, _ := set.ByName("sigma4")
	_, wIns, _, _ := st.Insert(2, tup("V", c("Syracuse"), c("Math Conf")))
	q, _ := NewViolationRead(NewEngine(st.Snap(2)), sigma4, wIns.Rel, wIns.After, SeedLHS)

	// A write to C is outside sigma4's relations entirely.
	_, recC, _, _ := st.Insert(1, tup("C", c("Boston")))
	if q.AffectedBy(new(Checker), st, recC) {
		t.Fatal("write to C cannot affect a sigma4 violation query")
	}
	// A T write that does not join with the seed (different city).
	_, recT, _, _ := st.Insert(1, tup("T", c("Niagara Falls"), c("QQQ"), c("Toronto")))
	if q.AffectedBy(new(Checker), st, recT) {
		t.Fatal("non-joining T write must not affect the seeded query")
	}
	// A T write that does join (starts in Syracuse) creates a new
	// violation for the seeded query.
	_, recT2, _, _ := st.Insert(1, tup("T", c("Niagara Falls"), c("QQQ"), c("Syracuse")))
	if !q.AffectedBy(new(Checker), st, recT2) {
		t.Fatal("joining T insert must affect the seeded query")
	}
}

func TestViolationReadInvisibleWriter(t *testing.T) {
	st, set := fig2(t)
	sigma4, _ := set.ByName("sigma4")
	_, wIns, _, _ := st.Insert(2, tup("V", c("Syracuse"), c("Math Conf")))
	q, _ := NewViolationRead(NewEngine(st.Snap(2)), sigma4, wIns.Rel, wIns.After, SeedLHS)
	// A write by update 7 is invisible to reader 2 and cannot affect it.
	_, rec, _, _ := st.Insert(7, tup("T", c("Niagara Falls"), c("QQQ"), c("Syracuse")))
	if q.AffectedBy(new(Checker), st, rec) {
		t.Fatal("invisible write must not affect the query")
	}
}

func TestViolationReadRHSCompletionRemovesViolation(t *testing.T) {
	// An insert completing the RHS removes a violation: also a
	// retroactive change.
	st, set := fig2(t)
	sigma3, _ := set.ByName("sigma3")
	// u2 inserts a tour with no review: a violation exists.
	_, wIns, _, _ := st.Insert(2, tup("T", c("Niagara Falls"), c("ABC"), c("Buffalo")))
	q, got := NewViolationRead(NewEngine(st.Snap(2)), sigma3, wIns.Rel, wIns.After, SeedLHS)
	if len(got) != 1 {
		t.Fatalf("violation expected, got %v", got)
	}
	// u1 supplies the review: the violation disappears retroactively.
	_, rec, _, _ := st.Insert(1, tup("R", c("ABC"), c("Niagara Falls"), c("ok")))
	if !q.AffectedBy(new(Checker), st, rec) {
		t.Fatal("RHS completion must affect the violation query")
	}
}

func TestMoreSpecificReadAffectedBy(t *testing.T) {
	st, _ := fig2(t)
	// Frontier tuple C(x9): any C write more specific than the pattern
	// affects the query.
	q := &MoreSpecificRead{Rel: "C", Pattern: []model.Value{n(9)}, ReaderNo: 3}
	_, ins, _, _ := st.Insert(1, tup("C", c("NYC")))
	if !q.AffectedBy(new(Checker), st, ins) {
		t.Fatal("C insert must affect C(x9) more-specific query")
	}
	recs, _ := st.DeleteContent(2, tup("C", c("Ithaca")))
	if !q.AffectedBy(new(Checker), st, recs[0]) {
		t.Fatal("C delete must affect the query")
	}
	_, insS, _, _ := st.Insert(1, tup("S", c("JFK"), c("NYC"), c("NYC")))
	if q.AffectedBy(new(Checker), st, insS) {
		t.Fatal("S write must not affect a C query")
	}
	// Invisible writer.
	_, insHi, _, _ := st.Insert(9, tup("C", c("LA")))
	if q.AffectedBy(new(Checker), st, insHi) {
		t.Fatal("invisible write must not affect the query")
	}
}

func TestMoreSpecificReadConstantPattern(t *testing.T) {
	st, _ := fig2(t)
	q := &MoreSpecificRead{Rel: "S", Pattern: []model.Value{n(7), n(8), c("NYC")}, ReaderNo: 3}
	_, w1, _, _ := st.Insert(1, tup("S", c("JFK"), c("NYC"), c("NYC")))
	if !q.AffectedBy(new(Checker), st, w1) {
		t.Fatal("matching city must affect")
	}
	_, w2, _, _ := st.Insert(1, tup("S", c("ALB"), c("Albany"), c("Albany")))
	if q.AffectedBy(new(Checker), st, w2) {
		t.Fatal("non-matching city must not affect")
	}
}

func TestNullOccReadAffectedBy(t *testing.T) {
	st, _ := fig2(t)
	q := &NullOccRead{Null: n(1), ReaderNo: 5}
	// Insert containing x1.
	_, w, _, _ := st.Insert(1, tup("C", n(1)))
	if !q.AffectedBy(new(Checker), st, w) {
		t.Fatal("insert containing x1 must affect")
	}
	// Replacement of x1 rewrites tuples containing it.
	recs, err := st.ReplaceNull(2, n(1), c("ABC Tours"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !q.AffectedBy(new(Checker), st, recs[0]) {
		t.Fatal("null replacement must affect")
	}
	// Unrelated write.
	_, w2, _, _ := st.Insert(1, tup("C", c("plain")))
	if q.AffectedBy(new(Checker), st, w2) {
		t.Fatal("unrelated write must not affect")
	}
}

func TestContentReadAffectedBy(t *testing.T) {
	st, _ := fig2(t)
	q := &ContentRead{Rel: "C", Vals: []model.Value{c("Ithaca")}, ReaderNo: 4}
	recs, _ := st.DeleteContent(1, tup("C", c("Ithaca")))
	if !q.AffectedBy(new(Checker), st, recs[0]) {
		t.Fatal("deleting the probed content must affect")
	}
	_, w, _, _ := st.Insert(2, tup("C", c("Boston")))
	if q.AffectedBy(new(Checker), st, w) {
		t.Fatal("different content must not affect")
	}
}

func TestReadQueryMetadata(t *testing.T) {
	st, set := fig2(t)
	sigma3, _ := set.ByName("sigma3")
	qs := []ReadQuery{
		&ViolationRead{TGD: sigma3, seedRel: int32(slices.Index(sigma3.Relations(), "T")), SeedVals: []model.Value{c("a"), c("b"), c("d")}, ReaderNo: 2},
		&MoreSpecificRead{Rel: "C", Pattern: []model.Value{n(1)}, ReaderNo: 2},
		&NullOccRead{Null: n(1), ReaderNo: 2},
		&ContentRead{Rel: "C", Vals: []model.Value{c("a")}, ReaderNo: 2},
	}
	wantKinds := []Kind{KindViolation, KindMoreSpecific, KindNullOcc, KindContent}
	for i, q := range qs {
		if q.Kind() != wantKinds[i] {
			t.Errorf("query %d kind = %v", i, q.Kind())
		}
		if q.Reader() != 2 {
			t.Errorf("query %d reader = %d", i, q.Reader())
		}
		if q.String() == "" {
			t.Errorf("query %d has empty String", i)
		}
	}
	if rels := qs[0].Relations(); len(rels) != 3 {
		t.Errorf("violation query relations = %v", rels)
	}
	if rels := qs[1].Relations(); len(rels) != 1 || rels[0] != "C" {
		t.Errorf("more-specific relations = %v", rels)
	}
	if rels := qs[2].Relations(); rels != nil {
		t.Errorf("null-occ relations = %v", rels)
	}
	if !strings.Contains(qs[0].String(), "sigma3") {
		t.Errorf("violation query string = %q", qs[0].String())
	}
	_ = st
}

// TestViolationReadOneAllocation pins the stored read's footprint: a
// ViolationRead fits the 112-byte size class it had when it kept a
// per-relation read vector and a rendered answer, and storing a read
// with an empty or a single-violation answer allocates exactly one
// object, the read itself. The single violation's Vals and Witness are
// allocated by the evaluation either way (AppendViolationsSeeded); the
// read holds them by reference.
func TestViolationReadOneAllocation(t *testing.T) {
	if size := unsafe.Sizeof(ViolationRead{}); size > 112 {
		t.Fatalf("ViolationRead is %d bytes, past the 112-byte size class", size)
	}
	s := model.NewSchema()
	s.MustAddRelation("A", "x")
	s.MustAddRelation("B", "x")
	m := tgd.New("m", []tgd.Atom{tgd.NewAtom("A", tgd.V("x"))}, []tgd.Atom{tgd.NewAtom("B", tgd.V("x"))})
	if err := m.Validate(s); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(s)
	for _, tu := range []model.Tuple{tup("A", c("a")), tup("A", c("b")), tup("B", c("b"))} {
		if _, err := st.Load(tu); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(st.Snap(5))
	dst := make([]Violation, 0, 4)
	for _, tc := range []struct {
		seed string
		want int
	}{{"b", 0}, {"a", 1}} {
		vals := []model.Value{c(tc.seed)}
		q, vs := AppendViolationRead(dst, e, m, "A", vals, SeedLHS)
		if len(vs) != tc.want || q.answerLen() != tc.want {
			t.Fatalf("seed A(%s): %d violations, answer of %d, want %d", tc.seed, len(vs), q.answerLen(), tc.want)
		}
		bare := testing.AllocsPerRun(100, func() { e.AppendViolationsSeeded(dst, m, "A", vals, SeedLHS) })
		stored := testing.AllocsPerRun(100, func() { AppendViolationRead(dst, e, m, "A", vals, SeedLHS) })
		if stored-bare != 1 {
			t.Errorf("seed A(%s): storing the read allocates %.0f objects beyond the evaluation's %.0f, want 1", tc.seed, stored-bare, bare)
		}
		if tc.want == 0 && stored != 1 {
			t.Errorf("an empty-answer read allocates %.0f objects, want 1", stored)
		}
	}
}
