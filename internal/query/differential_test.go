// Differential oracle for the compiled slot runtime: the interpreted
// reference engine (reference_test.go) is the semantics; the compiled
// engine must agree with it on every query surface — violation sets
// (keys and values), §4.2 seeded violation queries, certain answers and
// best-effort answers, row for row, which null each row shows included
// — over randomized schemas, mappings (some wider than
// 64 variables), duplicate-heavy data, and shared labeled nulls. CI
// runs this under -race -shuffle=on, and the fuzz lane extends the same
// property beyond the fixed seeds.
package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// diffWorld is one randomized instance: a store, its mappings, and the
// raw tuples (kept for seeding the §4.2 queries).
type diffWorld struct {
	st     *storage.Store
	tgds   []*tgd.TGD
	tuples []model.Tuple
}

var diffVars = []string{"x", "y", "z", "w", "u"}

// wideArity is the arity of the relation a wide world adds: three
// joining columns plus 64 private variables, so a mapping over it has
// more than 64 variables.
const wideArity = 67

// genWorld builds a random world. Constants come from a small pool so
// joins hit and duplicates are common; a few shared labeled nulls run
// through the data to exercise null equality in joins and keys. One
// world in four adds a wide relation and a mapping over it.
func genWorld(r *rand.Rand) *diffWorld {
	s := model.NewSchema()
	wide := r.Intn(4) == 0
	if wide {
		s.MustAddRelation("Wide", fieldNames(wideArity)...)
	}
	nRels := 2 + r.Intn(3)
	arity := make([]int, nRels)
	names := make([]string, nRels)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
		arity[i] = 1 + r.Intn(3)
		fields := make([]string, arity[i])
		for j := range fields {
			fields[j] = fmt.Sprintf("f%d", j)
		}
		s.MustAddRelation(names[i], fields...)
	}

	randVal := func() model.Value {
		if r.Intn(8) == 0 {
			return model.Null(int64(1 + r.Intn(3))) // shared nulls
		}
		return model.Const(fmt.Sprintf("c%d", r.Intn(6)))
	}
	st := storage.NewStore(s)
	var tuples []model.Tuple
	for i, n := 0, 8+r.Intn(25); i < n; i++ {
		ri := r.Intn(nRels)
		vals := make([]model.Value, arity[ri])
		for j := range vals {
			vals[j] = randVal()
		}
		tp := model.NewTuple(names[ri], vals...)
		st.Load(tp)
		tuples = append(tuples, tp)
	}
	for i, n := 0, 3+r.Intn(6); wide && i < n; i++ {
		vals := make([]model.Value, wideArity)
		for j := range vals {
			if j < 3 {
				vals[j] = randVal()
			} else {
				vals[j] = model.Const(fmt.Sprintf("k%d", r.Intn(2)))
			}
		}
		tp := model.NewTuple("Wide", vals...)
		st.Load(tp)
		tuples = append(tuples, tp)
	}

	randTerm := func() tgd.Term {
		if r.Intn(5) == 0 {
			return tgd.C(fmt.Sprintf("c%d", r.Intn(6)))
		}
		return tgd.V(diffVars[r.Intn(len(diffVars))])
	}
	randAtoms := func(n int) []tgd.Atom {
		out := make([]tgd.Atom, n)
		for i := range out {
			ri := r.Intn(nRels)
			terms := make([]tgd.Term, arity[ri])
			for j := range terms {
				terms[j] = randTerm()
			}
			out[i] = tgd.NewAtom(names[ri], terms...)
		}
		return out
	}
	w := &diffWorld{st: st, tuples: tuples}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		w.tgds = append(w.tgds,
			tgd.New(fmt.Sprintf("m%d", i), randAtoms(1+r.Intn(3)), randAtoms(1+r.Intn(2))))
	}
	if wide {
		// The wide atom joins through its first three columns; the rest
		// are private variables, prefixed by side so an RHS wide atom
		// brings 64 existentials.
		wideAtom := func(prefix string) tgd.Atom {
			terms := []tgd.Term{tgd.V(diffVars[r.Intn(len(diffVars))]), randTerm(), randTerm()}
			for j := 3; j < wideArity; j++ {
				terms = append(terms, tgd.V(fmt.Sprintf("%s%d", prefix, j)))
			}
			return tgd.NewAtom("Wide", terms...)
		}
		lhs := append([]tgd.Atom{wideAtom("v")}, randAtoms(r.Intn(2))...)
		rhs := randAtoms(1)
		if r.Intn(2) == 0 {
			rhs = []tgd.Atom{wideAtom("e")}
		}
		w.tgds = append(w.tgds, tgd.New("wide", lhs, rhs))
	}
	return w
}

// canonViols renders a violation set order-independently, by the same
// Key the chase dedups with (mapping, witness IDs, values).
func canonViols(vs []Violation) []string {
	out := make([]string, len(vs))
	for i := range vs {
		out[i] = vs[i].Key()
	}
	sort.Strings(out)
	return out
}

// canonRefViols renders the reference's violation set the same way.
func canonRefViols(vs []refViolation) []string {
	out := make([]string, len(vs))
	for i := range vs {
		out[i] = vs[i].key()
	}
	sort.Strings(out)
	return out
}

// checkViols demands that the compiled violations render the
// reference's keys byte for byte, and that each compiled violation's
// Vals are its reference binding's values in slot order.
func checkViols(t *testing.T, what string, cv []Violation, rv []refViolation) {
	t.Helper()
	if ck, rk := canonViols(cv), canonRefViols(rv); !equalStrs(ck, rk) {
		diffFatal(t, what, ck, rk)
	}
	byKey := make(map[string]refBinding, len(rv))
	for _, v := range rv {
		byKey[v.key()] = v.Binding
	}
	for i := range cv {
		if !valsMatch(PlanFor(cv[i].TGD), cv[i].Vals, byKey[cv[i].Key()]) {
			t.Fatalf("%s: %s carries values %v, reference binding %v", what, cv[i].Key(), cv[i].Vals, byKey[cv[i].Key()])
		}
	}
}

// valsMatch reports whether vals are exactly b's values in the plan's
// slot order.
func valsMatch(p *Plan, vals []model.Value, b refBinding) bool {
	if len(vals) != len(b) {
		return false
	}
	for s, val := range vals {
		if bv, ok := b[p.Slots()[s]]; !ok || bv != val {
			return false
		}
	}
	return true
}

func diffFatal(t *testing.T, what string, a, b []string) {
	t.Helper()
	t.Fatalf("%s diverged:\ncompiled:  %s\nreference: %s",
		what, strings.Join(a, " ; "), strings.Join(b, " ; "))
}

// lhsVars lists the mapping's LHS variables in first-occurrence order.
func lhsVars(m *tgd.TGD) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range m.LHS {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// checkWorld runs every query surface through the compiled engine and
// the reference and demands identical results. The engines are
// parameters so the parallel variant can hand each goroutine its own.
func checkWorld(t *testing.T, r *rand.Rand, w *diffWorld, ce *Engine, ie refEngine) {
	t.Helper()
	for _, m := range w.tgds {
		checkViols(t, "Violations("+m.Name+")", ce.Violations(m), ie.Violations(m))
		for _, side := range []Side{SeedLHS, SeedRHS, SeedBoth} {
			for round := 0; round < 4; round++ {
				tp := w.tuples[r.Intn(len(w.tuples))]
				checkViols(t, fmt.Sprintf("ViolationsSeeded(%s, %s, side %d)", m.Name, tp.Rel, side),
					ce.ViolationsSeeded(m, tp.Rel, tp.Vals, side), ie.ViolationsSeeded(m, tp.Rel, tp.Vals, side))
			}
		}
		// Certain answers of the LHS as a conjunctive query, projected
		// onto a random subset of its variables.
		var head []string
		for _, v := range lhsVars(m) {
			if r.Intn(2) == 0 {
				head = append(head, v)
			}
		}
		q := &CQ{Name: "q_" + m.Name, Head: head, Body: m.LHS}
		if cr, ir := rowKeys(ce.CertainAnswers(q)), rowKeys(ie.CertainAnswers(q)); !equalStrs(cr, ir) {
			diffFatal(t, "CertainAnswers("+q.String()+")", cr, ir)
		}
		if cr, ir := rowKeys(ce.BestEffortAnswers(q)), rowKeys(ie.BestEffortAnswers(q)); !equalStrs(cr, ir) {
			diffFatal(t, "BestEffortAnswers("+q.String()+")", cr, ir)
		}
	}
}

// rowKeys renders answer rows in their (already canonical) order.
func rowKeys(rows []model.Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.Key()
	}
	return out
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompiledVsInterpreted is the differential oracle: 100 seeded
// rounds of randomized worlds, each checked on both snapshot flavors.
func TestCompiledVsInterpreted(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			w := genWorld(r)
			snap := w.st.Snap(1)
			checkWorld(t, r, w, NewEngine(snap), refEngine{snap: snap})
			ep := w.st.EpochSnap()
			checkWorld(t, r, w, NewEngine(ep), refEngine{snap: ep})
		})
	}
}

// TestCompiledVsInterpretedParallel runs the oracle from concurrent
// workers sharing one world: all goroutines race on the process-wide
// intern table and the per-TGD plan and join-order caches, which is
// exactly how chase workers share plans in production. Run under
// -race in CI.
func TestCompiledVsInterpretedParallel(t *testing.T) {
	r := rand.New(rand.NewSource(424242))
	w := genWorld(r)
	snap := w.st.Snap(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(gseed int64) {
			defer wg.Done()
			gr := rand.New(rand.NewSource(gseed))
			checkWorld(t, gr, w, NewEngine(snap), refEngine{snap: snap})
		}(int64(g))
	}
	wg.Wait()
}

// FuzzCompiledVsInterpreted extends the oracle beyond the fixed seeds:
// the fuzzer picks the world seed.
func FuzzCompiledVsInterpreted(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		w := genWorld(r)
		snap := w.st.Snap(1)
		checkWorld(t, r, w, NewEngine(snap), refEngine{snap: snap})
	})
}
