package cc

import (
	"slices"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// checkFixture is a recorded prefix for warm conflict checks: mapping
// A(x) -> B(x) over a committed instance where A(a) is violated and
// A(b) is not; reader 5's seeded violation reads on A(b) (empty answer)
// and A(a) (one violation); writer 3's insert before the reads (checked
// in the masked branch) and writer 2's after them (the window branch).
type checkFixture struct {
	st            *storage.Store
	empty, single *query.ViolationRead
	pre, post     storage.WriteRec
}

func newCheckFixture(tb testing.TB) *checkFixture {
	tb.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x")
	m := tgd.New("m", []tgd.Atom{tgd.NewAtom("A", tgd.V("x"))}, []tgd.Atom{tgd.NewAtom("B", tgd.V("x"))})
	if err := m.Validate(schema); err != nil {
		tb.Fatal(err)
	}
	st := storage.NewStore(schema)
	for _, t := range []model.Tuple{
		model.NewTuple("A", model.Const("a")),
		model.NewTuple("A", model.Const("b")),
		model.NewTuple("B", model.Const("b")),
	} {
		if _, err := st.Load(t); err != nil {
			tb.Fatal(err)
		}
	}
	insert := func(writer int, v string) storage.WriteRec {
		_, w, ok, err := st.Insert(writer, model.NewTuple("A", model.Const(v)))
		if err != nil || !ok {
			tb.Fatalf("insert A(%s) by %d: ok=%v err=%v", v, writer, ok, err)
		}
		return w
	}
	f := &checkFixture{st: st, pre: insert(3, "c")}
	read := func(v string, want int) *query.ViolationRead {
		q, vs := query.NewViolationRead(query.NewEngine(st.Snap(5)), m, "A", []model.Value{model.Const(v)}, query.SeedLHS)
		if len(vs) != want {
			tb.Fatalf("fixture read of A(%s) found %d violations, want %d", v, len(vs), want)
		}
		return q
	}
	f.empty, f.single = read("b", 0), read("a", 1)
	f.post = insert(2, "zz")
	return f
}

// TestConflictCheckAllocFree: on a warm checker, a violation-read check
// with an empty and with a singleton recorded answer — in both the
// masked and the window branch — and a removal check allocate nothing,
// and neither does a warm COARSE OnRead of a structural read or of a
// violation read.
func TestConflictCheckAllocFree(t *testing.T) {
	f := newCheckFixture(t)
	var chk query.Checker
	removed := f.st.WritesOf(2)
	for name, check := range map[string]func() bool{
		"empty/masked":     func() bool { return f.empty.AffectedBy(&chk, f.st, f.pre) },
		"empty/window":     func() bool { return f.empty.AffectedBy(&chk, f.st, f.post) },
		"singleton/masked": func() bool { return f.single.AffectedBy(&chk, f.st, f.pre) },
		"singleton/window": func() bool { return f.single.AffectedBy(&chk, f.st, f.post) },
		"removal":          func() bool { return f.single.AffectedByRemoval(&chk, f.st, removed) },
	} {
		if check() {
			t.Fatalf("%s: fixture write must leave the answer unchanged", name)
		}
		if n := testing.AllocsPerRun(100, func() { check() }); n != 0 {
			t.Errorf("%s: warm conflict check allocates %.1f times, want 0", name, n)
		}
	}

	u := &Txn{Upd: chase.NewUpdate(5, chase.Op{}), Number: 5, sc: new(stepScratch)}
	content := &query.ContentRead{Rel: "A", Vals: []model.Value{model.Const("zz")}, ReaderNo: 5}
	for name, q := range map[string]query.ReadQuery{"structural": content, "violation": f.single} {
		Coarse{}.OnRead(f.st, u, q)
		if n := testing.AllocsPerRun(100, func() { Coarse{}.OnRead(f.st, u, q) }); n != 0 {
			t.Errorf("COARSE OnRead of a %s read allocates %.1f times, want 0", name, n)
		}
	}
	if !slices.Equal(u.deps, []int{2, 3}) {
		t.Fatalf("COARSE recorded deps %v, want writers 2 and 3", u.deps)
	}
}

// BenchmarkConflictCheck times a warm checker over a recorded prefix:
// the write-side check of one write against a candidate whose violation
// read recorded an empty or a single-violation answer, and the
// abort-side drift check of a removed log.
func BenchmarkConflictCheck(b *testing.B) {
	f := newCheckFixture(b)
	cfg := &Config{Tracker: Coarse{}}
	writes := []storage.WriteRec{f.post}
	for _, bc := range []struct {
		name string
		q    *query.ViolationRead
	}{{"empty", f.empty}, {"singleton", f.single}} {
		b.Run(bc.name, func(b *testing.B) {
			var sc stepScratch
			var m Metrics
			reader := &Txn{Upd: chase.NewUpdate(5, chase.Op{}), Number: 5}
			reader.Upd.RecordRead(bc.q)
			sc.cands = candidatesInto(sc.cands[:0], above([]*Txn{reader}, 2))
			check := func() {
				if len(directConflicts(f.st, cfg, &sc.chk, sc.cands, writes, &m)) != 0 {
					b.Fatal("fixture write must not conflict")
				}
			}
			check() // warm the checker
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check()
			}
		})
	}
	b.Run("removal", func(b *testing.B) {
		var sc stepScratch
		var m Metrics
		reader := &Txn{Upd: chase.NewUpdate(5, chase.Op{}), Number: 5}
		reader.Upd.RecordRead(f.single)
		sc.removal = removalCandidatesInto(sc.removal[:0], cfg, []*Txn{reader}, nil)
		removed := f.st.WritesOf(2)
		check := func() {
			if len(abortConflicts(f.st, &sc.chk, sc.removal, removed, &m)) != 0 {
				b.Fatal("fixture removal must not drift")
			}
		}
		check() // warm the checker
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check()
		}
	})
}
