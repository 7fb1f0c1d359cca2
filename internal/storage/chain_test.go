package storage

import (
	"fmt"
	"testing"
	"unsafe"

	"youtopia/internal/model"
)

// TestVersionIsThreeWords pins a version at three words: writer, seq
// and a pointer to the values, with no room for a length or a flag.
func TestVersionIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(version{}); got != 24 {
		t.Fatalf("a version is %d bytes, want 24", got)
	}
}

// chainStep acts on a store and names the number of versions the
// watched tuple then has on a trimming store and on a noTrim one; 0
// means it is not a member.
type chainStep struct {
	name             string
	do               func(st *Store, id TupleID) error
	want, wantNoTrim int
}

// TestChainRepresentation drives one tuple, with a member on each side,
// from one version to two and back along every path that moves a chain
// between its slot in the record table and the overflow map: an
// uncommitted delete and its abort, a null-replacement and the commit
// that trims it, a delete and the commit that takes the tuple out of
// the member list and the record table together, and redo and
// checkpoint inserts of an ID that lands in the middle of the member
// list. The same steps run on a trimming store, a noTrim store and one
// whose index keys all collide. After each step the watched tuple's
// chain must have the expected length, be inline exactly when it has
// one version, and leave its neighbours inline; every store must pass
// the audit; and the three must agree on Get and ScanRel, at a live
// reader and at the all-seeing one, and on RelStats where their layouts
// agree.
func TestChainRepresentation(t *testing.T) {
	x, a, k := model.Null(1), model.Const("a"), model.Const("k")
	r := func(vals ...model.Value) model.Tuple { return model.NewTuple("R", vals...) }
	// Tuple IDs of the one relation: its stripe is 0, so an ID is its
	// counter.
	const lo, mid, hi = TupleID(1), TupleID(2), TupleID(3)

	loadAround := func(watched model.Tuple) func(*Store) error {
		return func(st *Store) error {
			for _, tp := range []model.Tuple{r(c("lo"), k), watched, r(c("hi"), k)} {
				if _, err := st.Load(tp); err != nil {
					return err
				}
			}
			return nil
		}
	}
	redoEnds := func(st *Store) error {
		for _, id := range []TupleID{lo, hi} {
			if err := st.ApplyRedo(WriteRec{ID: id, Rel: "R", Op: OpInsert, After: []model.Value{c(fmt.Sprint(id)), k}}); err != nil {
				return err
			}
		}
		return nil
	}
	restoreAround := func(st *Store) error {
		return st.RestoreSnapshot([]CommittedTuple{
			{ID: lo, Rel: "R", Vals: []model.Value{c("lo"), k}},
			{ID: hi, Rel: "R", Vals: []model.Value{c("hi"), k}},
			{ID: mid, Rel: "R", Vals: []model.Value{x, k}},
		}, 1, nil)
	}
	del := func(st *Store, id TupleID) error {
		if _, ok, err := st.Delete(1, id); err != nil || !ok {
			return fmt.Errorf("delete ok=%v err=%v", ok, err)
		}
		return nil
	}
	abort := func(st *Store, _ TupleID) error { st.Abort(1); return nil }
	commit := func(st *Store, _ TupleID) error { return st.Commit(1) }
	replace := func(st *Store, _ TupleID) error {
		recs, err := st.ReplaceNull(1, x, a)
		if err == nil && len(recs) != 1 {
			err = fmt.Errorf("replacement wrote %v", recs)
		}
		return err
	}
	redo := func(op Op, after ...model.Value) func(*Store, TupleID) error {
		return func(st *Store, id TupleID) error {
			return st.ApplyRedo(WriteRec{ID: id, Rel: "R", Op: op, After: after})
		}
	}

	for _, sc := range []struct {
		name  string
		setup func(*Store) error
		steps []chainStep
	}{
		{"delete then abort", loadAround(r(a, k)), []chainStep{
			{"delete", del, 2, 2},
			{"abort", abort, 1, 1},
		}},
		{"replace null then commit", loadAround(r(x, k)), []chainStep{
			{"replace", replace, 2, 2},
			{"commit", commit, 1, 2},
		}},
		{"delete then commit", loadAround(r(a, k)), []chainStep{
			{"delete", del, 2, 2},
			{"commit", commit, 0, 2},
		}},
		{"redo into the middle", redoEnds, []chainStep{
			{"redo insert", redo(OpInsert, x, k), 1, 1},
			{"redo modify", redo(OpModify, a, k), 1, 2},
			{"delete", del, 2, 3},
			{"abort", abort, 1, 2},
			{"redo delete", redo(OpDelete), 0, 3},
		}},
		{"restore into the middle", restoreAround, []chainStep{
			{"replace", replace, 2, 2},
			{"abort", abort, 1, 1},
			{"delete", del, 2, 2},
			{"commit", commit, 0, 2},
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			plain, noTrim, collided := NewStore(chainSchema()), NewStore(chainSchema()), NewStore(chainSchema())
			noTrim.noTrim = true
			collided.collideKeys = true
			stores := []*Store{plain, noTrim, collided}
			for _, st := range stores {
				if err := sc.setup(st); err != nil {
					t.Fatal(err)
				}
			}
			// A redo scenario inserts the watched tuple in its first step.
			want, wantNoTrim := 1, 1
			if sc.steps[0].name == "redo insert" {
				want, wantNoTrim = 0, 0
			}
			for i := -1; i < len(sc.steps); i++ {
				step := "setup"
				if i >= 0 {
					s := sc.steps[i]
					step, want, wantNoTrim = s.name, s.want, s.wantNoTrim
					for _, st := range stores {
						if err := s.do(st, mid); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
					}
				}
				checkChain(t, step, plain, mid, want)
				checkChain(t, step, noTrim, mid, wantNoTrim)
				checkChain(t, step, collided, mid, want)
				seen := observe(plain, mid)
				for _, st := range stores[1:] {
					if got := observe(st, mid); got != seen {
						t.Fatalf("%s: stores disagree:\n%s\nvs\n%s", step, got, seen)
					}
				}
				ps, cs := relStats(plain.Snap(maxReader), "R"), relStats(collided.Snap(maxReader), "R")
				if cs.Live != ps.Live || fmt.Sprint(cs.Distinct) != "[1 1]" {
					t.Fatalf("%s: RelStats %+v with colliding keys, %+v without", step, cs, ps)
				}
			}
		})
	}
}

func chainSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("R", "a", "b")
	return s
}

// checkChain checks the record table of st's one relation: the tuple
// id has want versions (0: it is not a member), in its slot when it has
// one and behind a marker otherwise; every other member is inline;
// RelStats counts the members; and the audit passes.
func checkChain(t *testing.T, step string, st *Store, id TupleID, want int) {
	t.Helper()
	s := st.byIdx[0]
	for p, m := range s.members() {
		pg, i := s.at(p)
		got, marked := len(s.chain(p)), pg.recs[i].writer == chained
		if m != id {
			if got != 1 || marked {
				t.Fatalf("%s: neighbour %d has %d versions (marked %v)", step, m, got, marked)
			}
			continue
		}
		if got != want || marked != (want > 1) {
			t.Fatalf("%s: tuple %d has %d versions (marked %v), want %d", step, id, got, marked, want)
		}
	}
	if _, ok := s.find(id); ok != (want > 0) {
		t.Fatalf("%s: tuple %d a member: %v, want %d versions", step, id, ok, want)
	}
	if want < 2 && len(s.chains) != 0 {
		t.Fatalf("%s: chains %v left behind", step, s.chains)
	}
	if live, ids := relStats(st.Snap(maxReader), "R").Live, memberIDs(s); live != len(ids) {
		t.Fatalf("%s: RelStats counts %d members of %d", step, live, len(ids))
	}
	mustAudit(t, st)
}

// observe renders what a live reader and the all-seeing one get for
// the tuple id and for a scan of R.
func observe(st *Store, id TupleID) string {
	out := ""
	for _, reader := range []int{1, maxReader} {
		snap := st.Snap(reader)
		vals, ok := snap.Get(id)
		out += fmt.Sprintf("reader %d: Get %v %v, scan", reader, vals, ok)
		snap.ScanRel("R", func(id TupleID, vals []model.Value) bool {
			out += fmt.Sprintf(" %d%v", id, vals)
			return true
		})
		out += "\n"
	}
	return out
}

// TestRedoAndRestoreCheckArity: a version finds its values' length in
// its relation's arity, so a redo record or a checkpoint tuple carrying
// another number of values is refused before it changes anything.
func TestRedoAndRestoreCheckArity(t *testing.T) {
	st := NewStore(chainSchema())
	s, mark := st.byIdx[0], st.nulls.Floor()
	for _, rec := range []WriteRec{
		{ID: 1, Rel: "R", Op: OpInsert, After: []model.Value{c("a")}},
		{ID: 1, Rel: "R", Op: OpInsert, After: []model.Value{c("a"), c("b"), n(mark + 50)}},
		{ID: 1, Rel: "R", Op: OpModify},
	} {
		if err := st.ApplyRedo(rec); err == nil {
			t.Fatalf("redo %v of %d values accepted for arity 2", rec, len(rec.After))
		}
	}
	if st.Stats().Tuples != 0 || s.nextLocal != 0 || st.nulls.Floor() != mark {
		t.Fatalf("a refused redo changed the store: %+v, counter %d, null floor %d (was %d)", st.Stats(), s.nextLocal, st.nulls.Floor(), mark)
	}
	good := CommittedTuple{ID: 1, Rel: "R", Vals: []model.Value{c("a"), c("b")}}
	short := CommittedTuple{ID: 2, Rel: "R", Vals: []model.Value{c("a")}}
	if err := st.RestoreSnapshot([]CommittedTuple{good, short}, 0, nil); err == nil {
		t.Fatal("checkpoint tuple of 1 value accepted for arity 2")
	}
	if st.Stats().Tuples != 0 || s.nextLocal != 0 {
		t.Fatalf("a refused checkpoint changed the store: %+v, counter %d", st.Stats(), s.nextLocal)
	}
	tomb := CommittedTuple{ID: 3, Rel: "R", Deleted: true}
	if err := st.RestoreSnapshot([]CommittedTuple{good, tomb}, 0, nil); err != nil {
		t.Fatal(err)
	}
	mustAudit(t, st)
}
