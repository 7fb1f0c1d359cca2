package query

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// This file holds the checker to the conflict check it replaced: a
// cold engine per verdict on heap-derived snapshots, the answer
// rendered in full and compared as a string (answerCanon), behind the
// binding-building mayTouch prefilter. It also keeps the per-relation
// read vector a stored read recorded before it recorded one sequence,
// as the reference the one sequence is held to.

// refMayTouch is the prefilter as it was: unifyValsAtom against a
// fresh binding.
func refMayTouch(t *tgd.TGD, rel string, vals []model.Value) bool {
	if vals == nil {
		return false
	}
	for _, a := range append(append([]tgd.Atom(nil), t.LHS...), t.RHS...) {
		if a.Rel == rel {
			if _, ok := unifyValsAtom(vals, a, refBinding{}); ok {
				return true
			}
		}
	}
	return false
}

// refReaches reports whether a write passes the reference prefilters
// and so reaches the database evaluation.
func refReaches(q *ViolationRead, w storage.WriteRec) bool {
	return w.Writer <= q.ReaderNo && q.TGD.UsesRelation(w.Rel) &&
		(refMayTouch(q.TGD, w.Rel, w.After) || refMayTouch(q.TGD, w.Rel, w.Before))
}

// refAffectedBy is ViolationRead.AffectedBy before the checker.
func refAffectedBy(q *ViolationRead, st storage.Backend, w storage.WriteRec) bool {
	if !refReaches(q, w) {
		return false
	}
	snap := st.Snap(q.ReaderNo)
	if w.Seq > q.ReadSeq {
		snap.SetWindow(q.ReadSeq, w.Seq)
	} else {
		snap.SetCeiling(q.ReadSeq)
		snap.SetMask(w.Writer, w.Seq)
	}
	return q.answerCanon(snap) != q.recordedCanon()
}

// refAffectedByRemoval is ViolationRead.AffectedByRemoval before the
// checker.
func refAffectedByRemoval(q *ViolationRead, st storage.Backend, removed []storage.WriteRec) bool {
	relevant := false
	for _, w := range removed {
		relevant = relevant || refReaches(q, w)
	}
	if !relevant {
		return false
	}
	snap := st.Snap(q.ReaderNo)
	snap.SetWindow(q.ReadSeq, st.CurrentSeq())
	return q.answerCanon(snap) != q.recordedCanon()
}

// A read vector is what a stored violation read recorded before it
// recorded one sequence: for each relation of its mapping, aligned with
// TGD.Relations(), the highest sequence number applied in that relation
// when the read happened. Its view cut each relation at the relation's
// own ceiling, and a write was judged before or after the read by the
// ceiling of the write's relation. The functions below evaluate that
// view on the reference engine, reading each relation through a
// snapshot cut at its ceiling.

// vectorView returns the reference engine over q's vector view: each
// relation of the mapping read through a snapshot at q's reader,
// narrowed by narrow to the relation's ceiling.
func vectorView(q *ViolationRead, vec []int64, st storage.Backend, narrow func(sn *storage.Snapshot, ceil int64)) refEngine {
	byRel := make(map[string]*storage.Snapshot, len(vec))
	for i, rel := range q.TGD.Relations() {
		sn := st.Snap(q.ReaderNo)
		narrow(sn, vec[i])
		byRel[rel] = sn
	}
	return refEngine{byRel: byRel}
}

// vectorDiffers evaluates q on a vector view in full and compares the
// rendering with the recorded answer.
func vectorDiffers(q *ViolationRead, r refEngine) bool {
	found := r.ViolationsSeeded(q.TGD, q.SeedRel(), q.SeedVals, q.SeedSide)
	keys := make([]string, len(found))
	for i := range found {
		keys[i] = found[i].key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";") != q.recordedCanon()
}

// vectorAffectedBy is AffectedBy judged through the read vector.
func vectorAffectedBy(q *ViolationRead, vec []int64, st storage.Backend, w storage.WriteRec) bool {
	if !refReaches(q, w) {
		return false
	}
	if w.Seq > vec[slices.Index(q.TGD.Relations(), w.Rel)] {
		return vectorDiffers(q, vectorView(q, vec, st, func(sn *storage.Snapshot, ceil int64) {
			sn.SetWindow(ceil, w.Seq)
		}))
	}
	return vectorDiffers(q, vectorView(q, vec, st, func(sn *storage.Snapshot, ceil int64) {
		sn.SetCeiling(ceil)
		sn.SetMask(w.Writer, w.Seq)
	}))
}

// vectorAffectedByRemoval is AffectedByRemoval judged through the read
// vector.
func vectorAffectedByRemoval(q *ViolationRead, vec []int64, st storage.Backend, removed []storage.WriteRec) bool {
	relevant := false
	for _, w := range removed {
		relevant = relevant || refReaches(q, w)
	}
	if !relevant {
		return false
	}
	upto := st.CurrentSeq()
	return vectorDiffers(q, vectorView(q, vec, st, func(sn *storage.Snapshot, ceil int64) {
		sn.SetWindow(ceil, upto)
	}))
}

// wideVars pads the wide world's mapping past 64 variables, one
// machine word of slot set, so its checks run on multi-word slot sets.
const wideVars = 63

// checkerWorld is one random world: a store with committed data, a
// mapping, and the generator its writes draw from.
type checkerWorld struct {
	st  *storage.Store
	m   *tgd.TGD
	rng *rand.Rand
	// relSeq is each relation's highest applied sequence number, kept
	// from the world's own loads and writes.
	relSeq map[string]int64
}

func fieldNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("f%d", i)
	}
	return out
}

// genCheckerWorld builds a small random schema and mapping — joins,
// repeated variables and constants inside atoms, one or two atoms per
// side — over a duplicate-heavy instance. A wide world adds a
// 65-column relation to the LHS.
func genCheckerWorld(seed int64, wide bool) *checkerWorld {
	rng := rand.New(rand.NewSource(seed))
	s := model.NewSchema()
	rels := []string{"P0", "P1", "P2"}
	for _, rel := range rels {
		s.MustAddRelation(rel, fieldNames(1+rng.Intn(2))...)
	}
	if wide {
		s.MustAddRelation("W", fieldNames(2+wideVars)...)
	}
	mkAtom := func(vars ...string) tgd.Atom {
		rel := rels[rng.Intn(len(rels))]
		terms := make([]tgd.Term, s.Arity(rel))
		for j := range terms {
			if rng.Intn(6) == 0 {
				terms[j] = tgd.C("a")
			} else {
				terms[j] = tgd.V(vars[rng.Intn(len(vars))])
			}
		}
		return tgd.NewAtom(rel, terms...)
	}
	var m *tgd.TGD
	for {
		lhs := []tgd.Atom{mkAtom("x", "y")}
		switch {
		case wide:
			terms := []tgd.Term{tgd.V("x"), tgd.V("y")}
			for i := 0; i < wideVars; i++ {
				terms = append(terms, tgd.V(fmt.Sprintf("v%d", i)))
			}
			lhs = append(lhs, tgd.NewAtom("W", terms...))
		case rng.Intn(3) > 0:
			lhs = append(lhs, mkAtom("x", "y", "w"))
		}
		rhs := []tgd.Atom{mkAtom("x", "z")}
		if rng.Intn(3) == 0 {
			rhs = append(rhs, mkAtom("z", "y"))
		}
		m = tgd.New("m", lhs, rhs)
		if m.Validate(s) == nil {
			break
		}
	}
	w := &checkerWorld{st: storage.NewStore(s), m: m, rng: rng, relSeq: map[string]int64{}}
	for i, n := 0, 10+rng.Intn(20); i < n; i++ {
		tup := w.tuple(w.anyRel())
		w.st.Load(tup)
		w.relSeq[tup.Rel] = w.st.CurrentSeq()
	}
	return w
}

func (w *checkerWorld) anyRel() string {
	rels := w.st.Schema().Names()
	return rels[w.rng.Intn(len(rels))]
}

// tuple draws a tuple of rel from a small pool with one shared null;
// a wide tuple varies only in its first three columns.
func (w *checkerWorld) tuple(rel string) model.Tuple {
	pool := []model.Value{model.Const("a"), model.Const("b"), model.Const("c"), model.Null(1)}
	vals := make([]model.Value, w.st.Schema().Arity(rel))
	for j := range vals {
		if j < 3 {
			vals[j] = pool[w.rng.Intn(len(pool))]
		} else {
			vals[j] = model.Const("k")
		}
	}
	return model.NewTuple(rel, vals...)
}

// write performs one random insert or content delete by writer.
func (w *checkerWorld) write(t *testing.T, writer int) {
	t.Helper()
	tup := w.tuple(w.anyRel())
	var recs []storage.WriteRec
	var err error
	if w.rng.Intn(3) == 0 {
		recs, err = w.st.DeleteContent(writer, tup)
	} else {
		_, rec, inserted, ierr := w.st.Insert(writer, tup)
		if err = ierr; inserted {
			recs = append(recs, rec)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		w.relSeq[rec.Rel] = rec.Seq
	}
}

// vector returns the read vector of the mapping's relations now.
func (w *checkerWorld) vector() []int64 {
	rels := w.m.Relations()
	vec := make([]int64, len(rels))
	for i, rel := range rels {
		vec[i] = w.relSeq[rel]
	}
	return vec
}

// read records reader's seeded violation query, seeded from a tuple of
// a random atom of the mapping on that atom's side (or both).
func (w *checkerWorld) read(reader int) *ViolationRead {
	atoms, side := w.m.LHS, SeedLHS
	if w.rng.Intn(2) == 0 {
		atoms, side = w.m.RHS, SeedRHS
	}
	if w.rng.Intn(4) == 0 {
		side = SeedBoth
	}
	tup := w.tuple(atoms[w.rng.Intn(len(atoms))].Rel)
	q, _ := NewViolationRead(NewEngine(w.st.Snap(reader)), w.m, tup.Rel, tup.Vals, side)
	return q
}

func answerShape(q *ViolationRead) string {
	switch q.answerLen() {
	case 0:
		return "empty"
	case 1:
		return "singleton"
	default:
		return "multi"
	}
}

// checkEvent is one conflict check of the battery: a stored read with
// the read vector captured beside it, and either a write or a removed
// log.
type checkEvent struct {
	label   string
	q       *ViolationRead
	vec     []int64
	write   storage.WriteRec
	removed []storage.WriteRec // non-nil for a removal check
}

// checkerBattery runs the checks of the random worlds: over mappings
// of one and of several slot-set words, every stored read against every
// uncommitted write, both before the read (the masked
// at-or-below-ceiling branch) and after it (the past-ceiling window,
// invisible writers included), and against the removal of writers 2
// and 3 before and after their rollback. visit receives each check,
// with wide naming the world's kind.
func checkerBattery(t *testing.T, visit func(wide bool, st *storage.Store, e checkEvent)) {
	worlds := 0
	for _, wide := range []bool{false, true} {
		n := int64(150)
		if wide {
			n = 100
		}
		for seed := int64(0); seed < n; seed++ {
			w := genCheckerWorld(seed, wide)
			if got := len(PlanFor(w.m).Slots()); (got > 64) != wide {
				t.Fatalf("seed %d: wide=%v but the plan compiled %d slots", seed, wide, got)
			}
			worlds++
			for i, k := 0, 2+w.rng.Intn(5); i < k; i++ {
				w.write(t, 1+w.rng.Intn(4))
			}
			var reads []*ViolationRead
			var vecs [][]int64
			for _, reader := range []int{6, 6, 8} {
				vecs = append(vecs, w.vector())
				reads = append(reads, w.read(reader))
			}
			for i, k := 0, 2+w.rng.Intn(6); i < k; i++ {
				w.write(t, []int{2, 3, 5, 7, 9}[w.rng.Intn(5)])
			}
			for i, q := range reads {
				for _, wr := range w.st.UncommittedWrites() {
					label := fmt.Sprintf("wide=%v seed %d reader %d write %v", wide, seed, q.ReaderNo, wr)
					visit(wide, w.st, checkEvent{label: label, q: q, vec: vecs[i], write: wr})
				}
			}
			for _, writer := range []int{2, 3} {
				removed := w.st.WritesOf(writer)
				if removed == nil {
					removed = []storage.WriteRec{}
				}
				for i, q := range reads {
					label := fmt.Sprintf("wide=%v seed %d reader %d removal of %d (live)", wide, seed, q.ReaderNo, writer)
					visit(wide, w.st, checkEvent{label: label, q: q, vec: vecs[i], removed: removed})
				}
				w.st.Abort(writer)
				for i, q := range reads {
					label := fmt.Sprintf("wide=%v seed %d reader %d removal of %d (rolled back)", wide, seed, q.ReaderNo, writer)
					visit(wide, w.st, checkEvent{label: label, q: q, vec: vecs[i], removed: removed})
				}
			}
		}
	}
	if worlds < 100 {
		t.Fatalf("only %d worlds", worlds)
	}
}

// TestCheckerMatchesAnswerCanon: over the battery's random worlds, one
// checker — reused across every world — agrees with the cold-engine
// reference on AffectedBy and AffectedByRemoval. Every answer shape
// must be exercised with both verdicts.
func TestCheckerMatchesAnswerCanon(t *testing.T) {
	var chk Checker
	seen := map[string]int{}
	checkerBattery(t, func(wide bool, st *storage.Store, e checkEvent) {
		got, want, reached := false, false, false
		if e.removed != nil {
			got, want = e.q.AffectedByRemoval(&chk, st, e.removed), refAffectedByRemoval(e.q, st, e.removed)
		} else {
			got, want, reached = e.q.AffectedBy(&chk, st, e.write), refAffectedBy(e.q, st, e.write), refReaches(e.q, e.write)
		}
		if got != want {
			t.Fatalf("%s: checker says %v, reference %v (%s answer %q)", e.label, got, want, answerShape(e.q), e.q.recordedCanon())
		}
		if reached {
			seen[fmt.Sprintf("wide=%v/%s/%v", wide, answerShape(e.q), got)]++
		}
	})
	for _, wide := range []bool{false, true} {
		for _, shape := range []string{"empty", "singleton", "multi"} {
			for _, verdict := range []bool{false, true} {
				if k := fmt.Sprintf("wide=%v/%s/%v", wide, shape, verdict); seen[k] == 0 {
					t.Errorf("no evaluated check of shape %s; coverage %v", k, seen)
				}
			}
		}
	}
	t.Logf("evaluated checks by shape and verdict: %v", seen)
}

// TestReadSeqMatchesVector: a stored read's one read sequence gives
// every verdict its per-relation read vector gave, on every check of
// the battery: every write lands under one lock, so a relation holds no
// version between its own ceiling and the read sequence. Checks whose
// write's relation ceiling lies below the read sequence while the write
// lies between the two must occur, or the battery would not tell the
// vector from the sequence.
func TestReadSeqMatchesVector(t *testing.T) {
	var chk Checker
	split, verdicts := 0, map[bool]int{}
	checkerBattery(t, func(_ bool, st *storage.Store, e checkEvent) {
		var got, want bool
		if e.removed != nil {
			got, want = e.q.AffectedByRemoval(&chk, st, e.removed), vectorAffectedByRemoval(e.q, e.vec, st, e.removed)
		} else {
			got, want = e.q.AffectedBy(&chk, st, e.write), vectorAffectedBy(e.q, e.vec, st, e.write)
			if i := slices.Index(e.q.TGD.Relations(), e.write.Rel); i >= 0 && e.vec[i] < e.q.ReadSeq && refReaches(e.q, e.write) {
				split++
			}
		}
		if got != want {
			t.Fatalf("%s: read sequence %d says %v, read vector %v says %v", e.label, e.q.ReadSeq, got, e.vec, want)
		}
		verdicts[got]++
	})
	if split == 0 || verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the battery does not separate the vector from the sequence: %d split checks, verdicts %v", split, verdicts)
	}
	t.Logf("%d checks with a relation ceiling below the read sequence; verdicts %v", split, verdicts)
}
