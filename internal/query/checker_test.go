package query

import (
	"fmt"
	"math/rand"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// This file holds the checker to the conflict check it replaced: a
// cold engine per verdict on heap-derived snapshots, the answer
// rendered in full and compared as a string (answerCanon), behind the
// binding-building mayTouch prefilter.

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
	if w.Seq > q.readCeil(w.Rel) {
		snap.SetRelWindow(q.TGD.Relations(), q.ReadSeqs, w.Seq)
	} else {
		snap.SetRelCeilings(q.TGD.Relations(), q.ReadSeqs)
		snap.SetMask(w.Writer, w.Seq)
	}
	return q.answerCanon(snap) != q.Answer
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
	snap.SetRelWindow(q.TGD.Relations(), q.ReadSeqs, st.CurrentSeq())
	return q.answerCanon(snap) != q.Answer
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
	w := &checkerWorld{st: storage.NewStore(s), m: m, rng: rng}
	for i, n := 0, 10+rng.Intn(20); i < n; i++ {
		w.st.Load(w.tuple(w.anyRel()))
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
	var err error
	if w.rng.Intn(3) == 0 {
		_, err = w.st.DeleteContent(writer, tup)
	} else {
		_, _, _, err = w.st.Insert(writer, tup)
	}
	if err != nil {
		t.Fatal(err)
	}
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
	switch {
	case q.Answer == "":
		return "empty"
	case q.multi:
		return "multi"
	default:
		return "singleton"
	}
}

// TestCheckerMatchesAnswerCanon: over random worlds, one checker —
// reused across every world, mappings of one and of several slot-set
// words — agrees with the cold-engine reference on
// AffectedBy for every uncommitted write, both before the read (the
// masked at-or-below-ceiling branch) and after it (the past-ceiling
// window, invisible writers included), and on AffectedByRemoval before
// and after the removed writer's rollback. Every answer shape must be
// exercised with both verdicts.
func TestCheckerMatchesAnswerCanon(t *testing.T) {
	var chk Checker
	seen := map[string]int{}
	wide := false
	check := func(label string, got, want bool, q *ViolationRead, reached bool) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: checker says %v, reference %v (%s answer %q)", label, got, want, answerShape(q), q.Answer)
		}
		if reached {
			seen[fmt.Sprintf("wide=%v/%s/%v", wide, answerShape(q), got)]++
		}
	}
	worlds := 0
	for _, wide = range []bool{false, true} {
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
			reads := []*ViolationRead{w.read(6), w.read(6), w.read(8)}
			for i, k := 0, 2+w.rng.Intn(6); i < k; i++ {
				w.write(t, []int{2, 3, 5, 7, 9}[w.rng.Intn(5)])
			}
			for _, q := range reads {
				for _, wr := range w.st.UncommittedWrites() {
					label := fmt.Sprintf("wide=%v seed %d reader %d write %v", wide, seed, q.ReaderNo, wr)
					check(label, q.AffectedBy(&chk, w.st, wr), refAffectedBy(q, w.st, wr), q, refReaches(q, wr))
				}
			}
			for _, writer := range []int{2, 3} {
				removed := w.st.WritesOf(writer)
				for _, q := range reads {
					label := fmt.Sprintf("wide=%v seed %d reader %d removal of %d", wide, seed, q.ReaderNo, writer)
					check(label+" (live)", q.AffectedByRemoval(&chk, w.st, removed), refAffectedByRemoval(q, w.st, removed), q, false)
				}
				w.st.Abort(writer)
				for _, q := range reads {
					label := fmt.Sprintf("wide=%v seed %d reader %d removal of %d", wide, seed, q.ReaderNo, writer)
					check(label+" (rolled back)", q.AffectedByRemoval(&chk, w.st, removed), refAffectedByRemoval(q, w.st, removed), q, false)
				}
			}
		}
	}
	if worlds < 100 {
		t.Fatalf("only %d worlds", worlds)
	}
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
