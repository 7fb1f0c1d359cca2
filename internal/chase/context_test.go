package chase

import (
	"fmt"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// These tests pin the per-attempt query context: one snapshot and one
// query engine per update attempt, created at the attempt's first
// query, shared by every query site of the attempt, and dropped when
// the attempt ends — plus the allocation budget of a step that runs on
// a warm context.

// stepFixture is a store with three mappings that between them exercise
// the step shapes the budget pins:
//
//	hold:  H(x) -> exists z: K(x, z) & L(z)   opens a frontier that keeps the attempt alive
//	quiet: R(x, y) & S(y) -> T(x)             an R insert joins nothing: no violation
//	copy:  A(x) -> exists z: B(x, z)          an A insert is repaired by one B insert
type stepFixture struct {
	st  *storage.Store
	eng *Engine
	n   int
}

func newStepFixture(tb testing.TB) *stepFixture {
	tb.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("H", "x")
	schema.MustAddRelation("K", "x", "z")
	schema.MustAddRelation("L", "z")
	schema.MustAddRelation("R", "x", "y")
	schema.MustAddRelation("S", "y")
	schema.MustAddRelation("T", "x")
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x", "z")
	set := tgd.MustNewSet(
		tgd.New("hold",
			[]tgd.Atom{tgd.NewAtom("H", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("K", tgd.V("x"), tgd.V("z")), tgd.NewAtom("L", tgd.V("z"))}),
		tgd.New("quiet",
			[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("y")), tgd.NewAtom("S", tgd.V("y"))},
			[]tgd.Atom{tgd.NewAtom("T", tgd.V("x"))}),
		tgd.New("copy",
			[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"), tgd.V("z"))}),
	)
	if err := set.Validate(schema); err != nil {
		tb.Fatal(err)
	}
	st := storage.NewStore(schema)
	// K(h, k) does not satisfy hold's RHS (there is no L(k)) but is more
	// specific than the K(h, z) its repair generates, so that repair
	// stops at a frontier group.
	if _, err := st.Load(model.NewTuple("K", model.Const("h"), model.Const("k"))); err != nil {
		tb.Fatal(err)
	}
	return &stepFixture{st: st, eng: NewEngine(st, set)}
}

// warmAttempt returns an update parked at a frontier group: its context
// exists and, because the hold violation stays queued, survives every
// further step.
func (f *stepFixture) warmAttempt(tb testing.TB) *Update {
	tb.Helper()
	u := NewUpdate(1, Insert(model.NewTuple("H", model.Const("h"))))
	for step := 1; ; step++ {
		res, err := f.eng.Step(u)
		if err != nil {
			tb.Fatal(err)
		}
		if res.State == StateAwaitingUser && u.qctx != nil {
			return u
		}
		if res.State != StateReady || step == 3 {
			tb.Fatalf("warm-up step %d ended %s with context %v, want awaiting-user with a context", step, res.State, u.qctx)
		}
	}
}

// freshTuples builds n never-inserted tuples of rel (built ahead of the
// measured region: rendering and interning constants is the caller's
// cost, not the step's).
func (f *stepFixture) freshTuples(rel string, n int) []model.Tuple {
	out := make([]model.Tuple, n)
	for i := range out {
		f.n++
		vals := []model.Value{model.Const(fmt.Sprintf("v%d", f.n))}
		if rel == "R" {
			vals = append(vals, model.Const("nowhere"))
		}
		out[i] = model.Tuple{Rel: rel, Vals: vals}
	}
	return out
}

// stepInsert plans one insert on the parked attempt and steps until the
// update is parked again, returning the steps taken.
func (f *stepFixture) stepInsert(tb testing.TB, u *Update, t model.Tuple) int {
	u.writeSet = append(u.writeSet, Insert(t))
	u.state = StateReady
	for steps := 1; ; steps++ {
		res, err := f.eng.Step(u)
		if err != nil {
			tb.Fatal(err)
		}
		if res.State == StateAwaitingUser {
			return steps
		}
		if res.State != StateReady {
			tb.Fatalf("step ended %s", res.State)
		}
	}
}

// TestStepAllocBudget pins what a chase step allocates on a warm
// attempt, per planned insert and store included (the tuple and version
// records and the posting lists of fresh values are the storage
// layer's). The bounds are the numbers achieved, 12 and 40, plus one
// for the growth of the attempt's logs (reads, dedupe index, trace).
// With a Go map per indexed value and a rendered content key in the
// store the same inserts cost 27 and 71; before the per-attempt query
// context, 66 and 157.
func TestStepAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name  string
		rel   string
		steps int
		bound float64
	}{
		{"no-violation insert", "R", 1, 13},
		{"one-mapping forward repair", "A", 2, 41},
	} {
		f := newStepFixture(t)
		u := f.warmAttempt(t)
		const runs = 200
		tuples := f.freshTuples(c.rel, runs+1) // AllocsPerRun adds a warm-up call
		qe := u.qctx
		got := testing.AllocsPerRun(runs, func() {
			next := tuples[0]
			tuples = tuples[1:]
			if steps := f.stepInsert(t, u, next); steps != c.steps {
				t.Fatalf("%s took %d steps, want %d", c.name, steps, c.steps)
			}
		})
		if u.qctx != qe {
			t.Fatalf("%s: the attempt's context was replaced mid-attempt", c.name)
		}
		t.Logf("%s: %.1f allocs", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.1f allocs per insert, budget %.0f", c.name, got, c.bound)
		}
	}
}

// BenchmarkChaseStep times the two budgeted step shapes on a warm
// attempt; run with -benchmem for B/op and allocs/op.
func BenchmarkChaseStep(b *testing.B) {
	for _, c := range []struct{ name, rel string }{
		{"insert", "R"},
		{"forward-repair", "A"},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newStepFixture(b)
			u := f.warmAttempt(b)
			tuples := f.freshTuples(c.rel, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, t := range tuples {
				f.stepInsert(b, u, t)
			}
		})
	}
}

// TestQueryContextLifetime: nil before the first query, one engine for
// the whole attempt, nil again after termination, Cancel and Reset.
func TestQueryContextLifetime(t *testing.T) {
	f := newStepFixture(t)
	contexts := obsQueryContexts.Value()

	u := NewUpdate(1, Insert(model.NewTuple("A", model.Const("a"))))
	if u.qctx != nil {
		t.Fatal("fresh update already holds a context")
	}
	res, err := f.eng.Step(u)
	if err != nil || res.State != StateReady {
		t.Fatalf("step 1: %v, %v", res.State, err)
	}
	qe := u.qctx
	if qe == nil {
		t.Fatal("no context after the attempt's first queries")
	}
	if qe.Snapshot().Reader() != u.Number {
		t.Fatalf("context reads as %d, update is %d", qe.Snapshot().Reader(), u.Number)
	}
	res, err = f.eng.Step(u)
	if err != nil || res.State != StateTerminated {
		t.Fatalf("step 2: %v, %v", res.State, err)
	}
	if u.qctx != nil {
		t.Fatal("terminated update still holds its context")
	}
	if got := obsQueryContexts.Value() - contexts; got != 1 {
		t.Fatalf("a two-step attempt created %d contexts, want 1", got)
	}

	// Reset: the next attempt starts without one and builds its own.
	u = f.warmAttempt(t)
	old := u.qctx
	f.st.Abort(u.Number)
	u.Reset()
	if u.qctx != nil {
		t.Fatal("Reset kept the previous attempt's context")
	}
	for u.State() != StateAwaitingUser {
		if _, err := f.eng.Step(u); err != nil {
			t.Fatal(err)
		}
	}
	if u.qctx == nil || u.qctx == old {
		t.Fatal("the new attempt did not build a context of its own")
	}

	// Options and DecisionContext are query sites of the same attempt.
	qe = u.qctx
	g := u.Groups()[0]
	if opts := f.eng.Options(u, g); len(opts) != 2 {
		t.Fatalf("options = %v, want expand + one unify", opts)
	}
	f.eng.DecisionContext(u, g)
	if u.qctx != qe {
		t.Fatal("a frontier query replaced the attempt's context")
	}

	// Cancel.
	f.st.Abort(u.Number)
	u.Cancel()
	if u.qctx != nil {
		t.Fatal("Cancel kept the context")
	}
}

// TestWideMappingStepsThroughSharedContext: a mapping with more than 64
// variables steps on the same per-attempt context as everything else.
func TestWideMappingStepsThroughSharedContext(t *testing.T) {
	const width = 65 // RHS existentials; 66 variables with x
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	attrs := []string{"x"}
	terms := []tgd.Term{tgd.V("x")}
	for i := 0; i < width; i++ {
		attrs = append(attrs, fmt.Sprintf("z%d", i))
		terms = append(terms, tgd.V(fmt.Sprintf("z%d", i)))
	}
	schema.MustAddRelation("W", attrs...)
	wide := tgd.New("wide",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("W", terms...)})
	if err := wide.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	eng := NewEngine(st, tgd.MustNewSet(wide))
	contexts := obsQueryContexts.Value()

	u := NewUpdate(1, Insert(model.NewTuple("A", model.Const("a"))))
	var qe *query.Engine
	for step := 1; ; step++ {
		res, err := eng.Step(u)
		if err != nil {
			t.Fatal(err)
		}
		if res.State == StateTerminated {
			break
		}
		if res.State != StateReady || step > 3 {
			t.Fatalf("step %d ended %s", step, res.State)
		}
		if qe == nil {
			qe = u.qctx
		}
		if u.qctx == nil || u.qctx != qe {
			t.Fatalf("step %d ran on a different context", step)
		}
	}
	if got := obsQueryContexts.Value() - contexts; got != 1 {
		t.Fatalf("the wide mapping's attempt created %d contexts, want 1", got)
	}
	if n := st.Snap(u.Number).CountRel("W"); n != 1 {
		t.Fatalf("W holds %d tuples after the repair, want 1", n)
	}
	if vs := query.NewEngine(st.Snap(u.Number)).AllViolations(eng.Mappings()); len(vs) != 0 {
		t.Fatalf("%d violations survive", len(vs))
	}
}
