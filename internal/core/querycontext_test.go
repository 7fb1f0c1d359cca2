package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/simuser"
	"youtopia/internal/tgd"
)

var (
	queryContexts = obs.Default.Counter("chase_query_contexts_total")
	readsRecorded = obs.Default.Counter("chase_reads_recorded_total")
)

// TestRepositoryRecyclesOneQueryContext: a repository runs every
// update on one query context — inline updates with frontier
// operations, parks, resumes that re-park and then commit, and failed
// updates all give it back. No Apply keeps a read log.
func TestRepositoryRecyclesOneQueryContext(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	contexts, recorded := queryContexts.Value(), readsRecorded.Value()
	frontierOps := 0
	for i, city := range []string{"Albany", "Utica", "Geneva"} {
		stats, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const(city))), simuser.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		frontierOps += stats.FrontierOps
	}
	if frontierOps == 0 {
		t.Fatal("no inline update took a frontier operation")
	}
	// A park exit, a resume that expands and so parks again, and a
	// resume that commits.
	id := mustPark(t, r)
	e, _ := r.InboxEntry(id)
	expand := -1
	for i, k := range e.OptionKinds {
		if k == chase.DecideExpand {
			expand = i
			break
		}
	}
	if resolved, err := r.AnswerInbox(id, expand); err != nil || resolved {
		t.Fatalf("expanding resume: resolved %v, %v; want it parked again", resolved, err)
	}
	answerLikeUnifyFirst(t, r, id)
	// An error exit: no user to ask.
	if _, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const("Rome"))), nil); !errors.Is(err, chase.ErrNoDecision) {
		t.Fatalf("Apply with no user returned %v", err)
	}
	if _, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const("Troy"))), simuser.New(9)); err != nil {
		t.Fatal(err)
	}
	if got := queryContexts.Value() - contexts; got != 1 {
		t.Fatalf("the repository created %d query contexts, want 1", got)
	}
	if r := readsRecorded.Value() - recorded; r != 0 {
		t.Fatalf("serial Apply recorded %d reads, want none", r)
	}
}

// applyFixture is a repository over three mappings: an R insert joins
// nothing, an A insert is repaired by one B insert, and an F insert of
// a value loaded by loadChoices opens a positive frontier whose G tuple
// has two unify targets.
func applyFixture(tb testing.TB) *Repository {
	tb.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("R", "x", "y")
	schema.MustAddRelation("S", "y")
	schema.MustAddRelation("T", "x")
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x", "z")
	schema.MustAddRelation("F", "x")
	schema.MustAddRelation("G", "x", "z")
	schema.MustAddRelation("H", "x", "z")
	r, err := New(schema, tgd.MustNewSet(
		tgd.New("quiet",
			[]tgd.Atom{tgd.NewAtom("R", tgd.V("x"), tgd.V("y")), tgd.NewAtom("S", tgd.V("y"))},
			[]tgd.Atom{tgd.NewAtom("T", tgd.V("x"))}),
		tgd.New("copy",
			[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"), tgd.V("z"))}),
		tgd.New("choose",
			[]tgd.Atom{tgd.NewAtom("F", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("G", tgd.V("x"), tgd.V("z")), tgd.NewAtom("H", tgd.V("x"), tgd.V("z"))}),
	))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// loadChoices loads G(x, "k1") and G(x, "k2") for every F insert in
// ops: each insert's generated G(x, z) then has both as unify targets,
// while its H(x, z) has none and is inserted at once.
func loadChoices(tb testing.TB, r *Repository, ops []chase.Op) {
	tb.Helper()
	for _, op := range ops {
		if op.Tuple.Rel != "F" {
			continue
		}
		for _, k := range []string{"k1", "k2"} {
			if _, err := r.Store().Load(model.NewTuple("G", op.Tuple.Vals[0], model.Const(k))); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestApplyAllocBudget pins what a warm Repository.Apply allocates —
// chase, commit and store included — for an insert that violates
// nothing, for one repaired by a single forward step, and for one whose
// positive frontier a simulated user answers among an expansion and two
// unifications (Options and DecisionContext included): allocations
// and bytes (the TotalAlloc delta) per Apply over the same 200 warm
// updates. The bounds are the numbers achieved (4, 15 and 33
// allocations; 331, 916 and 2095 bytes) plus 10%.
func TestApplyAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name       string
		rel        string
		bound      float64
		bytesBound float64
	}{
		{"no-violation insert", "R", 4.4, 364},
		{"one-mapping forward repair", "A", 16.5, 1008},
		{"two-target frontier answered by a simulated user", "F", 36.3, 2305},
	} {
		r := applyFixture(t)
		const runs = 200
		ops := make([]chase.Op, runs+11) // 11 warm-up updates
		for i := range ops {
			vals := []model.Value{model.Const(fmt.Sprintf("%s%d", c.rel, i))}
			if c.rel == "R" {
				vals = append(vals, model.Const("nowhere"))
			}
			ops[i] = chase.Insert(model.Tuple{Rel: c.rel, Vals: vals})
		}
		loadChoices(t, r, ops)
		var user chase.User
		asked := 0
		if c.rel == "F" {
			sim := simuser.New(1)
			user = chase.UserFunc(func(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool) {
				if g.Positive && len(opts) == 3 {
					asked++
				}
				return sim.Decide(u, g, opts, ctx)
			})
		}
		frontierOps := 0
		apply := func() {
			stats, err := r.Apply(ops[0], user)
			if err != nil {
				t.Fatal(err)
			}
			frontierOps += stats.FrontierOps
			ops = ops[1:]
		}
		for range 11 {
			apply()
		}
		got, bytes := allocsPerApply(runs, apply)
		t.Logf("%s: %.1f allocs, %.0f bytes", c.name, got, bytes)
		if c.rel == "F" && (frontierOps < runs || asked < runs) {
			t.Errorf("%s: %d frontier operations and %d three-option questions in %d updates",
				c.name, frontierOps, asked, runs)
		}
		if got > c.bound {
			t.Errorf("%s: %.1f allocs per Apply, budget %.1f", c.name, got, c.bound)
		}
		if bytes > c.bytesBound {
			t.Errorf("%s: %.0f bytes per Apply, budget %.0f", c.name, bytes, c.bytesBound)
		}
	}
}

// allocsPerApply is testing.AllocsPerRun without its warm-up call,
// reporting bytes beside the allocation count: over runs calls of
// apply on one P, the allocations per call, truncated as AllocsPerRun
// truncates them, and the mean allocated bytes.
func allocsPerApply(runs int, apply func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		apply()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / uint64(runs)), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// BenchmarkRepositoryApply times the two budgeted Apply shapes on a
// warm repository; run with -benchmem for B/op and allocs/op.
func BenchmarkRepositoryApply(b *testing.B) {
	for _, c := range []struct{ name, rel string }{
		{"insert", "R"},
		{"forward-repair", "A"},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := applyFixture(b)
			ops := make([]chase.Op, b.N)
			for i := range ops {
				vals := []model.Value{model.Const(fmt.Sprintf("%s%d", c.rel, i))}
				if c.rel == "R" {
					vals = append(vals, model.Const("nowhere"))
				}
				ops[i] = chase.Insert(model.Tuple{Rel: c.rel, Vals: vals})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, op := range ops {
				if _, err := r.Apply(op, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
