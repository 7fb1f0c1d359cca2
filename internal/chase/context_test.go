package chase

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// These tests pin the recycled query context: an attempt runs on one
// context from its first query until it gives the context back
// (termination, Cancel, Reset), a context taken again reads at its new
// update's number, and an engine builds no more contexts than the peak
// number of attempts holding one. Every step's read half runs on the
// engine's one query engine. Plus the allocation budget of a step that runs on a warm
// context and a warm engine.

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
// layer's). The no-violation bound is 12 achieved plus one for the
// growth of the attempt's logs (reads, dedupe index, trace); it now
// achieves 1. The forward repair's is the 14 achieved since violations
// carry their values as a slice instead of a map, plus 10%; it now
// achieves 5: index lists change in place, the queue entry, its
// witness signature, the seeded query's result array and its dedup
// key come from reused storage, and the update records no trace. With a Go map per indexed value and a
// rendered content key in the store the same inserts cost 27 and 71;
// before the per-attempt query context, 66 and 157.
//
// The read half of the violating insert alone — discovery, enqueue,
// recheck, plan — may allocate only the violation's own Vals and
// Witness copies and the planned tuple's values: 3.
func TestStepAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name  string
		rel   string
		steps int
		bound float64
	}{
		{"no-violation insert", "R", 1, 13},
		{"one-mapping forward repair", "A", 2, 15.4},
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
			t.Errorf("%s: %.1f allocs per insert, budget %.1f", c.name, got, c.bound)
		}
	}
	got := violatingStepReadsAllocs(t)
	t.Logf("violating step reads: %.2f allocs", got)
	if got > 3 {
		t.Errorf("violating step reads: %.2f allocs, budget 3 (Vals, Witness, planned tuple)", got)
	}
}

// TestLoggedViolationReadAllocs pins what logging a violation read
// with an empty answer allocates on a warm attempt and a warm engine:
// the read and its read vector, 2 objects. The answer goes into the
// context's result array, and the log's array and dedup index grow
// amortized.
func TestLoggedViolationReadAllocs(t *testing.T) {
	f := newStepFixture(t)
	logged := 0
	f.eng.SetReadObserver(func(*Update, query.ReadQuery) { logged++ })
	u := f.warmAttempt(t)
	c := u.qctx
	qe := f.eng.queryEngine(&c.snap)
	const runs = 200
	tuples := f.freshTuples("R", runs+1) // quiet's seeded query: R(v, nowhere) joins no S
	queued, before := u.QueueLen(), logged
	allocs := testing.AllocsPerRun(runs, func() {
		tu := tuples[0]
		tuples = tuples[1:]
		f.eng.seedAndEnqueue(u, qe, tu.Rel, tu.Vals, query.SeedLHS)
	})
	if got := logged - before; got != runs+1 || u.QueueLen() != queued {
		t.Fatalf("%d reads logged, queue %d → %d; want %d new reads and no violation", got, queued, u.QueueLen(), runs+1)
	}
	t.Logf("logged empty violation read: %.1f allocs", allocs)
	if allocs > 2 {
		t.Errorf("%.1f allocations per logged empty violation read, want at most 2 (the read, its read vector)", allocs)
	}
}

// violatingStepReadsAllocs returns what the read half of a step whose
// insert violates the copy mapping allocates on a warm attempt:
// discovery, enqueue, the queue recheck and the repair plan.
func violatingStepReadsAllocs(t *testing.T) float64 {
	f := newStepFixture(t)
	u := f.warmAttempt(t)
	const runs = 200
	tuples := f.freshTuples("A", runs+1)
	// MemStats counts every goroutine's allocations, and the runtime's
	// own work (a collection's workers and cleanups, the scavenger)
	// allocates at times no test controls; a collection's assist can
	// even park the test goroutine inside a measured step. With
	// collection off and one P, none of it runs in a measured step.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for i, tu := range tuples {
		u.writeSet = append(u.writeSet, Insert(tu))
		u.state = StateReady
		res, err := f.eng.stepWrites(u)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		res, err = f.eng.stepReads(u, res.Writes)
		runtime.ReadMemStats(&after)
		if err != nil || res.State != StateReady || u.QueueLen() != 2 {
			t.Fatalf("violating step ended %s with %d queued (%v), want the copy repair planned", res.State, u.QueueLen(), err)
		}
		if i > 0 { // the first run warms the mapping's plan
			mallocs += after.Mallocs - before.Mallocs
		}
		if res, err = f.eng.Step(u); err != nil || res.State != StateAwaitingUser {
			t.Fatalf("repair step ended %s (%v)", res.State, err)
		}
	}
	return float64(mallocs) / runs
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

// TestQueryContextLifetime: nil before the first query, one context for
// the whole attempt, given back at termination, Reset and Cancel, and
// taken again by the next attempt at that attempt's own update number.
// The engine builds one context and one query engine for the whole
// test, and each step's read half runs that query engine on the
// stepping attempt's context.
func TestQueryContextLifetime(t *testing.T) {
	f := newStepFixture(t)
	contexts, engines := obsQueryContexts.Value(), obsQueryEngines.Value()
	var c *queryContext
	returned := func(what string) {
		t.Helper()
		if f.eng.qe == nil || f.eng.qe.Snapshot() != &c.snap {
			t.Fatalf("%s: the step's query engine does not read through the attempt's context", what)
		}
	}

	u := NewUpdate(1, Insert(model.NewTuple("A", model.Const("a"))))
	if u.qctx != nil {
		t.Fatal("fresh update already holds a context")
	}
	res, err := f.eng.Step(u)
	if err != nil || res.State != StateReady {
		t.Fatalf("step 1: %v, %v", res.State, err)
	}
	c = u.qctx
	if c == nil {
		t.Fatal("no context after the attempt's first queries")
	}
	if got := c.snap.Reader(); got != u.Number {
		t.Fatalf("context reads as %d, update is %d", got, u.Number)
	}
	returned("step 1")
	res, err = f.eng.Step(u)
	if err != nil || res.State != StateTerminated {
		t.Fatalf("step 2: %v, %v", res.State, err)
	}
	if u.qctx != nil {
		t.Fatal("terminated update still holds its context")
	}
	if len(f.eng.idle) != 1 || f.eng.idle[0] != c {
		t.Fatal("termination did not give the context back")
	}

	// takeAgain steps v to its frontier and checks it runs on c, re-pointed
	// at v's number.
	takeAgain := func(v *Update, what string) {
		t.Helper()
		for v.State() == StateReady {
			if _, err := f.eng.Step(v); err != nil {
				t.Fatal(err)
			}
			if v.qctx != nil && v.qctx != c {
				t.Fatalf("%s: the attempt runs on a new context", what)
			}
			returned(what)
		}
		if v.qctx != c {
			t.Fatalf("%s: the attempt did not take the idle context", what)
		}
		if got := c.snap.Reader(); got != v.Number {
			t.Fatalf("%s: context reads as %d, update is %d", what, got, v.Number)
		}
	}

	// Another update takes the same context and reads at its own number.
	u = NewUpdate(2, Insert(model.NewTuple("H", model.Const("h"))))
	takeAgain(u, "update 2")

	// Options and DecisionContext are query sites of the same attempt.
	g := u.Groups()[0]
	if opts := f.eng.Options(u, g); len(opts) != 2 {
		t.Fatalf("options = %v, want expand + one unify", opts)
	}
	f.eng.DecisionContext(u, g)
	if u.qctx != c {
		t.Fatal("a frontier query replaced the attempt's context")
	}

	// Reset gives it back; the next attempt takes it again.
	f.st.Abort(u.Number)
	u.Reset()
	if u.qctx != nil || len(f.eng.idle) != 1 {
		t.Fatal("Reset kept the previous attempt's context")
	}
	takeAgain(u, "update 2, attempt 2")

	// Cancel gives it back too.
	f.st.Abort(u.Number)
	u.Cancel()
	if u.qctx != nil || len(f.eng.idle) != 1 {
		t.Fatal("Cancel kept the context")
	}
	takeAgain(NewUpdate(3, Insert(model.NewTuple("H", model.Const("h")))), "update 3")

	if got := obsQueryContexts.Value() - contexts; got != 1 {
		t.Fatalf("one attempt at a time created %d contexts, want 1", got)
	}
	if got := obsQueryEngines.Value() - engines; got != 1 {
		t.Fatalf("one attempt at a time created %d query engines, want 1", got)
	}
}

// TestQueryContextsBoundedByAttemptsInFlight interleaves attempts the
// way a cooperative scheduler does — some parked at frontiers, some
// terminating, some cancelled — and checks that the engine never builds
// more contexts than the peak number of attempts holding one at once,
// that no two attempts ever hold the same context, and that all of
// them step on one query engine.
func TestQueryContextsBoundedByAttemptsInFlight(t *testing.T) {
	f := newStepFixture(t)
	contexts, engines := obsQueryContexts.Value(), obsQueryEngines.Value()
	peak := 0
	var live []*Update
	checkOwners := func() {
		t.Helper()
		owners := make(map[*queryContext]int)
		held := 0
		for _, v := range live {
			if v.qctx == nil {
				continue
			}
			held++
			if w, dup := owners[v.qctx]; dup {
				t.Fatalf("updates %d and %d hold one context", w, v.Number)
			}
			owners[v.qctx] = v.Number
			if got := v.qctx.snap.Reader(); got != v.Number {
				t.Fatalf("update %d's context reads as %d", v.Number, got)
			}
		}
		peak = max(peak, held)
	}
	n := 0
	for wave := 0; wave < 4; wave++ {
		// Each wave adds two attempts that park at a frontier (their K
		// target is loaded first) and three that terminate, stepped
		// round-robin.
		for i := 0; i < 5; i++ {
			n++
			val := model.Const(fmt.Sprintf("w%d", n))
			rel := "A"
			if i < 2 {
				rel = "H"
				if _, err := f.st.Load(model.NewTuple("K", val, model.Const("k"))); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, NewUpdate(n, Insert(model.NewTuple(rel, val))))
		}
		for moved := true; moved; {
			moved = false
			for _, v := range live {
				if v.State() != StateReady {
					continue
				}
				if _, err := f.eng.Step(v); err != nil {
					t.Fatal(err)
				}
				moved = true
				checkOwners()
			}
		}
		// Cancel the oldest parked attempt; the next wave reuses its context.
		for _, v := range live {
			if v.State() == StateAwaitingUser {
				f.st.Abort(v.Number)
				v.Cancel()
				break
			}
		}
		checkOwners()
	}
	created := obsQueryContexts.Value() - contexts
	t.Logf("%d attempts, peak %d holding a context, %d contexts created", n, peak, created)
	if created > int64(peak) {
		t.Fatalf("%d contexts created, peak attempts holding one %d", created, peak)
	}
	if int(created) >= n {
		t.Fatalf("%d contexts for %d attempts: nothing was recycled", created, n)
	}
	if got := obsQueryEngines.Value() - engines; got != 1 || f.eng.qe == nil {
		t.Fatalf("%d query engines created, want the engine's one", got)
	}
}

// TestWideMappingStepsThroughSharedContext: a mapping with more than 64
// variables steps on the same context as everything else, from the
// attempt's first query until it gives the context back.
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

	var c *queryContext
	for number, val := range []string{"a", "b"} {
		u := NewUpdate(number+1, Insert(model.NewTuple("A", model.Const(val))))
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
			if c == nil {
				c = u.qctx
			}
			if u.qctx == nil || u.qctx != c {
				t.Fatalf("update %d step %d ran on a different context", u.Number, step)
			}
		}
		if u.qctx != nil {
			t.Fatalf("update %d kept its context after terminating", u.Number)
		}
		if err := st.Commit(u.Number); err != nil {
			t.Fatal(err)
		}
	}
	if got := obsQueryContexts.Value() - contexts; got != 1 {
		t.Fatalf("two wide-mapping attempts created %d contexts, want 1", got)
	}
	if n := countRel(st.Snap(2), "W"); n != 2 {
		t.Fatalf("W holds %d tuples after the repairs, want 2", n)
	}
	if vs := query.NewEngine(st.Snap(2)).AllViolations(eng.Mappings()); len(vs) != 0 {
		t.Fatalf("%d violations survive", len(vs))
	}
}

// countRel returns the number of tuples of rel visible in sn.
func countRel(sn *storage.Snapshot, rel string) int {
	rows, _ := sn.ProbeRows(rel, -1, model.Value{}, nil, nil)
	return len(rows)
}

// TestScratchOptionsAllocFree pins that a warm positiveOptions over a
// tuple with two unify targets allocates nothing: the targets, their
// canonical renderings and the decisions all go into the engine's
// scratch.
func TestScratchOptionsAllocFree(t *testing.T) {
	f := newStepFixture(t)
	if _, err := f.st.Load(model.NewTuple("K", model.Const("h"), model.Const("k2"))); err != nil {
		t.Fatal(err)
	}
	u := f.warmAttempt(t)
	g := u.Groups()[0]
	if opts := f.eng.scratchOptions(u, g); len(opts) != 3 {
		t.Fatalf("options = %v, want expand + two unifies", opts)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.eng.scratchOptions(u, g) }); allocs != 0 {
		t.Errorf("%.1f allocations per warm enumeration, want 0", allocs)
	}
}

// TestScratchOptionsWideAllocFree: a group with more than 64 decisions
// enumerates without allocating after its context went idle and was
// taken again. The decision array is the engine's, so no context keeps
// or regrows one.
func TestScratchOptionsWideAllocFree(t *testing.T) {
	f := newStepFixture(t)
	// hold's repair generates K(h, z) and L(z): every K(h, k*) and every
	// L(l*) is a unify target, and no K(h, k*) meets an L(k*).
	for i := 0; i < 40; i++ {
		for _, tu := range []model.Tuple{
			model.NewTuple("K", model.Const("h"), model.Const(fmt.Sprintf("k%d", i))),
			model.NewTuple("L", model.Const(fmt.Sprintf("l%d", i))),
		} {
			if _, err := f.st.Load(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	u := f.warmAttempt(t)
	g := u.Groups()[0]
	if opts := f.eng.scratchOptions(u, g); len(opts) <= 64 {
		t.Fatalf("%d options, want more than 64", len(opts))
	}
	c := u.qctx
	allocs := testing.AllocsPerRun(20, func() {
		u.releaseContext()
		f.eng.queryContext(u)
		f.eng.scratchOptions(u, g)
	})
	if u.qctx != c {
		t.Fatal("the attempt took a new context")
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per enumeration on a context taken again, want 0", allocs)
	}
}
