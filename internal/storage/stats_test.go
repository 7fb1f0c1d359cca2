package storage

import (
	"fmt"
	"testing"

	"youtopia/internal/model"
)

// relStats returns RelStatsInto's statistics for rel.
func relStats(sn *Snapshot, rel string) RelStats {
	var st RelStats
	sn.RelStatsInto(rel, &st)
	return st
}

// TestRelStats checks the planner statistics: live counts and
// per-column distinct fanout, read off the live stripe for both
// snapshot flavors — a committed-state snapshot reports what the
// stripe holds, uncommitted tuples included, because the planner has
// one source.
func TestRelStats(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("A", "x", "y")
	s.MustAddRelation("Empty", "z")
	st := NewStore(s)
	for i := 0; i < 12; i++ {
		st.Load(model.NewTuple("A",
			model.Const(fmt.Sprintf("k%d", i)), model.Const(fmt.Sprintf("g%d", i%3))))
	}

	check := func(name string, sn *Snapshot, live, distinct0 int) {
		t.Helper()
		got := relStats(sn, "A")
		if got.Live != live {
			t.Fatalf("%s: Live = %d, want %d", name, got.Live, live)
		}
		if len(got.Distinct) != 2 || got.Distinct[0] != distinct0 || got.Distinct[1] != 3 {
			t.Fatalf("%s: Distinct = %v, want [%d 3]", name, got.Distinct, distinct0)
		}
		if e := relStats(sn, "Empty"); e.Live != 0 || e.Distinct != nil {
			t.Fatalf("%s: empty relation stats = %+v", name, e)
		}
		if u := relStats(sn, "NoSuchRel"); u.Live != 0 {
			t.Fatalf("%s: unknown relation stats = %+v", name, u)
		}
	}
	ep := st.EpochSnap()
	check("live", st.Snap(0), 12, 12)
	check("epoch", ep, 12, 12)

	if _, _, _, err := st.Insert(1, model.NewTuple("A", model.Const("new"), model.Const("g0"))); err != nil {
		t.Fatal(err)
	}
	check("live after an uncommitted insert", st.Snap(0), 13, 13)
	check("epoch after an uncommitted insert", ep, 13, 13)
}
