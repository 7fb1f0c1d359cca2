// The chase's step used to identify queued violations by rendering
// them (Violation.Key) and to recheck a violation by rebuilding its
// binding from scratch. Those renderings are now the reference: the
// structural identity and the register-file recheck must agree with
// them on randomized worlds.
package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"youtopia/internal/model"
)

func cloneViolation(v Violation) Violation {
	return Violation{TGD: v.TGD, Vals: slices.Clone(v.Vals), Witness: slices.Clone(v.Witness)}
}

// TestRecheckMatchesReference: after random writes (null replacements,
// deletes, inserts) by the reader, Recheck reaches the reference
// verdict and leaves the reference binding's values on every
// violation that still holds, without writing the old values in place.
func TestRecheckMatchesReference(t *testing.T) {
	rechecked, gone, rebound := 0, 0, 0
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := genWorld(r)
		snap := w.st.Snap(1)
		ce, ie := NewEngine(snap), refEngine{snap: snap}
		var vs []Violation
		for _, m := range w.tgds {
			vs = append(vs, ce.Violations(m)...)
		}
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			tp := w.tuples[r.Intn(len(w.tuples))]
			switch r.Intn(3) {
			case 0:
				if _, err := w.st.ReplaceNull(1, model.Null(int64(1+r.Intn(3))), model.Const(fmt.Sprintf("c%d", r.Intn(6)))); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := w.st.DeleteContent(1, tp); err != nil {
					t.Fatal(err)
				}
			default:
				vals := append([]model.Value(nil), tp.Vals...)
				vals[r.Intn(len(vals))] = model.Const(fmt.Sprintf("c%d", r.Intn(6)))
				if _, _, _, err := w.st.Insert(1, model.Tuple{Rel: tp.Rel, Vals: vals}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range vs {
			wantHolds, wantBinding := ie.Recheck(&vs[i])
			v := vs[i] // shares Vals, as a frontier group does
			old := slices.Clone(vs[i].Vals)
			if got := ce.Recheck(&v); got != wantHolds {
				t.Fatalf("seed %d: Recheck(%s) = %v, reference %v", seed, vs[i].Key(), got, wantHolds)
			}
			if !slices.Equal(vs[i].Vals, old) {
				t.Fatalf("seed %d: Recheck(%s) wrote the shared values in place", seed, vs[i].Key())
			}
			want := refViolation{TGD: v.TGD, Binding: wantBinding, Witness: v.Witness}
			if wantHolds && (v.Key() != want.key() || !valsMatch(PlanFor(v.TGD), v.Vals, wantBinding)) {
				t.Fatalf("seed %d: values after Recheck %s, reference %s", seed, v.Key(), want.key())
			}
			rechecked++
			if !wantHolds {
				gone++
			} else if want.key() != vs[i].Key() {
				rebound++
			}
		}
	}
	// The worlds must exercise all three outcomes.
	if gone == 0 || rebound == 0 || rechecked-gone-rebound == 0 {
		t.Fatalf("rechecked %d violations: %d gone, %d rebound — an outcome is uncovered", rechecked, gone, rebound)
	}
}

// TestRecheckUnchangedWitnessAllocFree: the steady-state recheck — the
// witness still stands and nothing moved — allocates nothing and keeps
// the violation's values slice.
func TestRecheckUnchangedWitnessAllocFree(t *testing.T) {
	st, set := fig2(t)
	sigma3, _ := set.ByName("sigma3")
	// A tour of Geneva Winery by a company that has no review of it.
	if _, _, _, err := st.Insert(2, tup("T", c("Geneva Winery"), c("ABC Tours"), c("Ithaca"))); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st.Snap(2))
	vs := e.Violations(sigma3)
	if len(vs) == 0 {
		t.Fatal("fixture has no sigma3 violation")
	}
	v := &vs[0]
	before := &v.Vals[0]
	if !e.Recheck(v) { // warm the run pool
		t.Fatal("violation does not hold")
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Recheck(v) }); allocs != 0 {
		t.Fatalf("Recheck of an unchanged witness: %.0f allocs, want 0", allocs)
	}
	if &v.Vals[0] != before {
		t.Fatal("Recheck replaced unchanged values")
	}
}

// TestViolationSameMatchesKey: Same is Key equality, over every pair
// of violations of a world plus perturbed copies.
func TestViolationSameMatchesKey(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := genWorld(r)
		e := NewEngine(w.st.Snap(1))
		var vs []Violation
		for _, m := range w.tgds {
			for _, v := range e.Violations(m) {
				vs = append(vs, v, cloneViolation(v))
				p := cloneViolation(v) // same witness, one value moved
				if len(p.Vals) > 0 {
					p.Vals[0] = model.Const("elsewhere")
				}
				q := cloneViolation(v) // same values, one witness moved
				q.Witness[0]++
				vs = append(vs, p, q)
			}
		}
		for i := range vs {
			for j := range vs {
				same, keys := vs[i].Same(&vs[j]), vs[i].Key() == vs[j].Key()
				if same != keys {
					t.Fatalf("seed %d: Same = %v but keys %q vs %q", seed, same, vs[i].Key(), vs[j].Key())
				}
			}
		}
	}
}
