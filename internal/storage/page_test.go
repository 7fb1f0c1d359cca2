package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"youtopia/internal/model"
)

// memberIDs returns the IDs of the stripe's members in table order.
func memberIDs(s *stripe) []TupleID {
	var ids []TupleID
	for _, id := range s.members() {
		ids = append(ids, id)
	}
	return ids
}

// pageCounts returns the number of members on each page of the stripe.
func pageCounts(s *stripe) []int {
	var ns []int
	for _, pg := range s.pages {
		ns = append(ns, pg.len())
	}
	return ns
}

// TestPageIsOneSizeClass pins a page of the tuple table at 512 bytes,
// a size class of its own: a count field would round it up to 576. An
// index page is 256 bytes in a stripe index and 512 in the null index,
// for the same reason.
func TestPageIsOneSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 512 {
		t.Fatalf("a page is %d bytes, want 512", got)
	}
	if got := unsafe.Sizeof(postPage[uint32]{}); got != 256 {
		t.Fatalf("a stripe index page is %d bytes, want 256", got)
	}
	if got := unsafe.Sizeof(postPage[uint64]{}); got != 512 {
		t.Fatalf("a null index page is %d bytes, want 512", got)
	}
}

// TestPagesFillInIDOrder: tuples minted in ID order fill each page
// before the next opens, and deleting them all again empties the
// directory.
func TestPagesFillInIDOrder(t *testing.T) {
	st := NewStore(chainSchema())
	s := st.byIdx[0]
	var ids []TupleID
	for i := range 100 {
		id, err := st.Load(model.NewTuple("R", model.Const("v"), model.Const(fmt.Sprint(i))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got, want := pageCounts(s), []int{16, 16, 16, 16, 16, 16, 4}; !slices.Equal(got, want) {
		t.Fatalf("100 in-order inserts fill pages %v, want %v", got, want)
	}
	mustAudit(t, st)
	for _, id := range ids {
		if _, ok, err := st.Delete(0, id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
		mustAudit(t, st)
	}
	if len(s.pages) != 0 || s.count != 0 {
		t.Fatalf("every member deleted, yet pages %v and count %d are left", pageCounts(s), s.count)
	}
}

// TestPagesMatchMemberSet drives one stripe's tuple table with redo
// records that insert and delete random IDs, out of order, so that
// inserts split full pages and removals empty and merge them. After
// every record the table must list exactly the reference set in
// ascending order, pass checkTable, and keep the occupancy bound: P
// pages hold at least (pageSize+1)·⌊P/2⌋ members.
func TestPagesMatchMemberSet(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(chainSchema())
		s := st.byIdx[0]
		in := map[TupleID]bool{}
		for step := range 3000 {
			// Grow to a few hundred members, then shrink to none.
			id := TupleID(1 + rng.Intn(400))
			del := in[id] && (step > 2000 || rng.Intn(3) == 0)
			rec := WriteRec{ID: id, Rel: "R", Op: OpInsert, After: []model.Value{model.Const("a"), model.Const("b")}}
			switch {
			case del:
				rec.Op = OpDelete
			case in[id]:
				rec.Op = OpModify
			}
			if err := st.ApplyRedo(rec); err != nil {
				t.Fatal(err)
			}
			in[id] = !del
			if !in[id] {
				delete(in, id)
			}
			want := make([]TupleID, 0, len(in))
			for id := range in {
				want = append(want, id)
			}
			slices.Sort(want)
			if got := memberIDs(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: members %v, want %v", seed, step, got, want)
			}
			if err := s.checkTable(); err != nil {
				t.Fatalf("seed %d step %d: %v (pages %v)", seed, step, err, pageCounts(s))
			}
			if p := len(s.pages); s.count < (pageSize+1)*(p/2) {
				t.Fatalf("seed %d step %d: %d pages for %d members", seed, step, p, s.count)
			}
		}
		mustAudit(t, st)
	}
}

// TestRedoRefusesCounterZero: a TupleID's counter starts at 1, and a
// free page slot holds ID 0, so a redo record or a checkpoint tuple
// naming counter 0 is refused and changes nothing.
func TestRedoRefusesCounterZero(t *testing.T) {
	st := NewStore(chainSchema())
	rec := WriteRec{ID: 0, Rel: "R", Op: OpInsert, After: []model.Value{model.Const("a"), model.Const("b")}}
	if err := st.ApplyRedo(rec); err == nil {
		t.Fatal("redo of tuple ID 0 accepted")
	}
	ct := CommittedTuple{ID: 0, Rel: "R", Vals: rec.After}
	if err := st.RestoreSnapshot([]CommittedTuple{ct}, 0, nil); err == nil {
		t.Fatal("checkpoint tuple ID 0 accepted")
	}
	if n := st.Stats().Tuples; n != 0 {
		t.Fatalf("refused records left %d tuples", n)
	}
}
