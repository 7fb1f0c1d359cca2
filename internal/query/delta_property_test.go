package query

import (
	"fmt"
	"math/rand"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// randomWorld builds a small random schema, mapping and instance for
// delta-evaluation properties.
func randomWorld(seed int64) (*storage.Store, *tgd.TGD, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	s := model.NewSchema()
	nRels := rng.Intn(3) + 2
	for i := 0; i < nRels; i++ {
		arity := rng.Intn(2) + 1
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		s.MustAddRelation(fmt.Sprintf("P%d", i), attrs...)
	}
	rels := s.Names()
	mkAtom := func(vars []string) tgd.Atom {
		rel := rels[rng.Intn(len(rels))]
		terms := make([]tgd.Term, s.Arity(rel))
		for j := range terms {
			terms[j] = tgd.V(vars[rng.Intn(len(vars))])
		}
		return tgd.NewAtom(rel, terms...)
	}
	var m *tgd.TGD
	for {
		lhs := []tgd.Atom{mkAtom([]string{"x", "y"})}
		if rng.Intn(2) == 0 {
			lhs = append(lhs, mkAtom([]string{"x", "y", "w"}))
		}
		rhs := []tgd.Atom{mkAtom([]string{"x", "z"})}
		m = tgd.New("m", lhs, rhs)
		if m.Validate(s) == nil {
			break
		}
	}
	st := storage.NewStore(s)
	pool := []model.Value{model.Const("a"), model.Const("b"), model.Const("c")}
	for i := 0; i < rng.Intn(20)+5; i++ {
		rel := rels[rng.Intn(len(rels))]
		vals := make([]model.Value, s.Arity(rel))
		for j := range vals {
			vals[j] = pool[rng.Intn(len(pool))]
		}
		st.Load(model.NewTuple(rel, vals...))
	}
	return st, m, rng
}

// TestSeededViolationsSoundAndComplete checks the delta property the
// chase relies on: after a write, the violations returned by the
// seeded query are exactly the full violation set's members whose
// witness or lost support involves the written values.
func TestSeededViolationsSoundAndComplete(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		st, m, rng := randomWorld(seed)
		e := NewEngine(st.Snap(10))

		// Perform one random insert.
		rels := st.Schema().Names()
		rel := rels[rng.Intn(len(rels))]
		vals := make([]model.Value, st.Schema().Arity(rel))
		pool := []model.Value{model.Const("a"), model.Const("b"), model.Const("d")}
		for j := range vals {
			vals[j] = pool[rng.Intn(len(pool))]
		}
		_, w, ins, err := st.Insert(5, model.NewTuple(rel, vals...))
		if err != nil {
			t.Fatal(err)
		}
		if !ins {
			continue
		}

		full := e.Violations(m)
		fullKeys := make(map[string]bool, len(full))
		for i := range full {
			fullKeys[full[i].Key()] = true
		}
		seeded := e.ViolationsSeeded(m, w.Rel, w.After, SeedLHS)

		// Soundness: every seeded violation is a real violation.
		for i := range seeded {
			if !fullKeys[seeded[i].Key()] {
				t.Fatalf("seed %d: seeded violation %s not in full set", seed, seeded[i].Key())
			}
		}
		// Completeness for the written tuple: every full violation whose
		// witness uses the written tuple's values at an LHS atom over
		// its relation must be found by the seeded query.
		seededKeys := make(map[string]bool, len(seeded))
		for i := range seeded {
			seededKeys[seeded[i].Key()] = true
		}
		snap := st.Snap(10)
		for i := range full {
			usesWrite := false
			for _, id := range full[i].Witness {
				tv, ok := snap.GetTuple(id)
				if ok && tv.Rel == w.Rel && (model.Tuple{Rel: w.Rel, Vals: w.After}).Equal(tv) {
					usesWrite = true
				}
			}
			if usesWrite && !seededKeys[full[i].Key()] {
				t.Fatalf("seed %d: violation %s involves the write but was missed", seed, full[i].Key())
			}
		}
	}
}

// TestAffectedByAgreesWithRecomputation cross-checks the incremental
// conflict test against brute force: for a stored violation query and
// a later write, AffectedBy must say "changed" exactly when the
// re-evaluated answer (as of read time plus the write) differs from
// the recorded one.
func TestAffectedByAgreesWithRecomputation(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		st, m, rng := randomWorld(seed + 1000)
		rels := st.Schema().Names()
		randTuple := func() model.Tuple {
			rel := rels[rng.Intn(len(rels))]
			vals := make([]model.Value, st.Schema().Arity(rel))
			pool := []model.Value{model.Const("a"), model.Const("b"), model.Const("d")}
			for j := range vals {
				vals[j] = pool[rng.Intn(len(vals))+0] // deterministic-ish mix
				vals[j] = pool[rng.Intn(len(pool))]
			}
			return model.NewTuple(rel, vals...)
		}

		// Reader 5 performs a write and poses its violation query.
		_, w5, ins, err := st.Insert(5, randTuple())
		if err != nil {
			t.Fatal(err)
		}
		if !ins {
			continue
		}
		readSeq := st.CurrentSeq()
		q, _ := NewViolationRead(NewEngine(st.Snap(5)), m, w5.Rel, w5.After, SeedLHS)

		// Writer 2 performs a later write.
		var w2 storage.WriteRec
		if rng.Intn(2) == 0 {
			_, w2, ins, err = st.Insert(2, randTuple())
			if err != nil || !ins {
				continue
			}
		} else {
			recs, err := st.DeleteContent(2, randTuple())
			if err != nil || len(recs) == 0 {
				continue
			}
			w2 = recs[0]
		}

		got := q.AffectedBy(new(Checker), st, w2)
		// Brute force: the full answer as of read time + interference
		// window, on a cold engine, with the read time captured
		// independently of the query, against the recorded answer
		// rendered in full. This execution is single-threaded, so the
		// two must agree — which checks the sequence capture, the
		// structural prefilters and the in-place comparison at once.
		win := st.Snap(5)
		win.SetWindow(readSeq, w2.Seq)
		want := q.answerCanon(win) != q.recordedCanon()
		if got != want {
			t.Fatalf("seed %d: AffectedBy = %v, brute force = %v (write %v)", seed, got, want, w2)
		}
	}
}
