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

// readSink keeps a measured fresh read on the heap, as a read log does.
var readSink *ViolationRead

// TestViolationReadOneAllocation pins the stored read's footprint: a
// ViolationRead fits the 112-byte size class it had when it kept a
// per-relation read vector and a rendered answer. A fresh read with an
// empty or a single-violation answer allocates exactly one object, the
// read itself, and a read stored into a released record allocates
// nothing, a multi-violation answer included once the record owns
// arrays it fits in. Each violation's Vals and Witness are allocated by
// the evaluation either way (AppendViolationsSeeded); the read holds a
// single one by reference and copies several.
func TestViolationReadOneAllocation(t *testing.T) {
	defer func() { readSink = nil }()
	if size := unsafe.Sizeof(ViolationRead{}); size > 112 {
		t.Fatalf("ViolationRead is %d bytes, past the 112-byte size class", size)
	}
	s := model.NewSchema()
	s.MustAddRelation("A", "x")
	s.MustAddRelation("B", "x")
	s.MustAddRelation("C", "x", "y")
	m := tgd.New("m", []tgd.Atom{tgd.NewAtom("A", tgd.V("x"))}, []tgd.Atom{tgd.NewAtom("B", tgd.V("x"))})
	pair := tgd.New("pair", []tgd.Atom{tgd.NewAtom("A", tgd.V("x")), tgd.NewAtom("C", tgd.V("x"), tgd.V("y"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("y"))})
	for _, tg := range []*tgd.TGD{m, pair} {
		if err := tg.Validate(s); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.NewStore(s)
	for _, tu := range []model.Tuple{tup("A", c("a")), tup("A", c("b")), tup("B", c("b")),
		tup("C", c("a"), c("1")), tup("C", c("a"), c("2"))} {
		if _, err := st.Load(tu); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(st.Snap(5))
	dst := make([]Violation, 0, 4)
	for _, tc := range []struct {
		tgd  *tgd.TGD
		seed string
		want int
	}{{m, "b", 0}, {m, "a", 1}, {pair, "a", 2}} {
		vals := []model.Value{c(tc.seed)}
		q, vs := NewViolationRead(e, tc.tgd, "A", vals, SeedLHS)
		if len(vs) != tc.want || q.answerLen() != tc.want {
			t.Fatalf("%s seed A(%s): %d violations, answer of %d, want %d", tc.tgd.Name, tc.seed, len(vs), q.answerLen(), tc.want)
		}
		if q.owned != (tc.want > 1) || tc.want == 1 && &q.vals[0] != &vs[0].Vals[0] {
			t.Fatalf("%s seed A(%s): owned %v; a single violation must be held by reference, several copied", tc.tgd.Name, tc.seed, q.owned)
		}
		bare := testing.AllocsPerRun(100, func() { e.AppendViolationsSeeded(dst, tc.tgd, "A", vals, SeedLHS) })
		fresh := testing.AllocsPerRun(100, func() {
			readSink = new(ViolationRead)
			readSink.Store(e, tc.tgd, "A", vals, SeedLHS, e.AppendViolationsSeeded(dst, tc.tgd, "A", vals, SeedLHS))
		})
		want := 1.0 // the read; several violations add its two arrays
		if tc.want > 1 {
			want = 3
		}
		if fresh-bare != want {
			t.Errorf("%s seed A(%s): a fresh read allocates %.0f objects beyond the evaluation's %.0f, want %.0f",
				tc.tgd.Name, tc.seed, fresh-bare, bare, want)
		}
		if tc.want == 0 && fresh != 1 {
			t.Errorf("an empty-answer read allocates %.0f objects, want 1", fresh)
		}
		answer := q.recordedCanon()
		reused := testing.AllocsPerRun(100, func() {
			q.Release()
			q.Store(e, tc.tgd, "A", vals, SeedLHS, e.AppendViolationsSeeded(dst, tc.tgd, "A", vals, SeedLHS))
		})
		if reused != bare {
			t.Errorf("%s seed A(%s): a read stored into a released record allocates %.0f objects beyond the evaluation's %.0f, want none",
				tc.tgd.Name, tc.seed, reused-bare, bare)
		}
		if got := q.recordedCanon(); got != answer {
			t.Errorf("%s seed A(%s): the reused record answers %q, want %q", tc.tgd.Name, tc.seed, got, answer)
		}
		q.Release()
		if q.ReaderNo != ReleasedReader || q.TGD != nil || (q.vals == nil) == q.owned {
			t.Errorf("%s seed A(%s): a release left reader %d, owned %v, arrays %v", tc.tgd.Name, tc.seed, q.ReaderNo, q.owned, q.vals != nil)
		}
	}

	// A single violation fits a released record's own arrays: it is
	// copied there, and the violation's arrays stay unwritten.
	q, _ := NewViolationRead(e, pair, "A", []model.Value{c("a")}, SeedLHS)
	q.Release()
	vs := e.AppendViolationsSeeded(nil, m, "A", []model.Value{c("a")}, SeedLHS)
	if q.Slack(vs) < 0 {
		t.Fatal("a single violation does not fit arrays that held two")
	}
	q.Store(e, m, "A", []model.Value{c("a")}, SeedLHS, vs)
	if !q.owned || q.answerLen() != 1 || &q.vals[0] == &vs[0].Vals[0] || &q.witness[0] == &vs[0].Witness[0] {
		t.Errorf("a single violation stored into owned arrays: owned %v, answer of %d", q.owned, q.answerLen())
	}
}
