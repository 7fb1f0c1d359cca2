package storage

import (
	"testing"

	"youtopia/internal/model"
)

func TestSnapshotScanRelDeterministic(t *testing.T) {
	st := NewStore(testSchema())
	want := []string{"a", "b", "c", "d"}
	for _, v := range want {
		st.Load(tup("C", c(v)))
	}
	for run := 0; run < 5; run++ {
		var got []string
		st.Snap(0).ScanRel("C", func(id TupleID, vals []model.Value) bool {
			got = append(got, vals[0].ConstValue())
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan order changed: %v", got)
			}
		}
	}
	// Early stop.
	count := 0
	st.Snap(0).ScanRel("C", func(TupleID, []model.Value) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestSnapshotCountRel(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("a")))
	st.Load(tup("C", c("b")))
	st.DeleteContent(3, tup("C", c("a")))
	if got := st.Snap(0).CountRel("C"); got != 2 {
		t.Fatalf("CountRel(0) = %d", got)
	}
	if got := st.Snap(3).CountRel("C"); got != 1 {
		t.Fatalf("CountRel(3) = %d", got)
	}
}

func TestSnapshotCandidatesByValue(t *testing.T) {
	st := NewStore(testSchema())
	id1, _ := st.Load(tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	st.Load(tup("S", c("JFK"), c("NYC"), c("NYC")))
	var one [1]TupleID
	got := st.Snap(0).CandidatesByValue("S", 0, c("SYR"), &one)
	if len(got) != 1 || got[0] != id1 {
		t.Fatalf("candidates = %v", got)
	}
	if got := st.Snap(0).CandidatesByValue("S", 7, c("SYR"), &one); got != nil {
		t.Fatalf("out-of-range column returned %v", got)
	}
}

func TestSnapshotGetTupleAndRel(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("C", c("a")))
	tp, ok := st.Snap(0).GetTuple(id)
	if !ok || tp.String() != "C(a)" {
		t.Fatalf("GetTuple = %v %v", tp, ok)
	}
	rel, ok := st.Snap(0).Rel(id)
	if !ok || rel != "C" {
		t.Fatalf("Rel = %v %v", rel, ok)
	}
	if _, ok := st.Snap(0).GetTuple(999); ok {
		t.Fatal("GetTuple on unknown id")
	}
	if _, ok := st.Snap(0).Rel(999); ok {
		t.Fatal("Rel on unknown id")
	}
}

func TestSnapshotMoreSpecific(t *testing.T) {
	st := NewStore(testSchema())
	idNYC, _ := st.Load(tup("S", c("JFK"), c("NYC"), c("NYC")))
	st.Load(tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	idNull, _ := st.Load(tup("S", n(1), n(2), c("NYC")))

	// Pattern with a constant: S(x9, x10, NYC) — matches both NYC
	// tuples (one ground, one with nulls), but not itself duplicates.
	pattern := tup("S", n(9), n(10), c("NYC"))
	got := st.Snap(0).MoreSpecific(pattern)
	if len(got) != 2 || got[0] != idNYC || got[1] != idNull {
		t.Fatalf("MoreSpecific = %v, want [%d %d]", got, idNYC, idNull)
	}

	// The exact same content is excluded.
	got = st.Snap(0).MoreSpecific(tup("S", n(1), n(2), c("NYC")))
	if len(got) != 1 || got[0] != idNYC {
		t.Fatalf("MoreSpecific excluding self = %v", got)
	}
}

func TestSnapshotMoreSpecificNoConstants(t *testing.T) {
	st := NewStore(testSchema())
	idA, _ := st.Load(tup("C", c("a")))
	idN, _ := st.Load(tup("C", n(5)))
	got := st.Snap(0).MoreSpecific(tup("C", n(9)))
	if len(got) != 2 || got[0] != idA || got[1] != idN {
		t.Fatalf("MoreSpecific full scan = %v", got)
	}
}

func TestSnapshotMoreSpecificRepeatedNullConstraint(t *testing.T) {
	st := NewStore(testSchema())
	idAA, _ := st.Load(tup("R", c("a"), c("a")))
	st.Load(tup("R", c("a"), c("b")))
	// R(x1, x1) demands equal values positionwise.
	got := st.Snap(0).MoreSpecific(tup("R", n(1), n(1)))
	if len(got) != 1 || got[0] != idAA {
		t.Fatalf("MoreSpecific = %v", got)
	}
}

func TestSnapshotWithMask(t *testing.T) {
	st := NewStore(testSchema())
	id, recs, ins, _ := st.Insert(2, tup("C", c("NYC")))
	if !ins {
		t.Fatal("insert failed")
	}
	snap := st.Snap(5)
	if _, ok := snap.Get(id); !ok {
		t.Fatal("tuple must be visible unmasked")
	}
	masked := *snap
	masked.SetMask(recs.Writer, recs.Seq)
	if _, ok := masked.Get(id); ok {
		t.Fatal("masked version must be invisible")
	}
	// The snapshot the copy was taken from is unaffected.
	if _, ok := snap.Get(id); !ok {
		t.Fatal("SetMask on a copy mutated the original")
	}
}

func TestSnapshotWithMaskExposesPrior(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("R", n(1), c("k")))
	recs, _ := st.ReplaceNull(2, n(1), c("v"))
	snap := st.Snap(5)
	if vals, _ := snap.Get(id); vals[0] != c("v") {
		t.Fatalf("unmasked = %v", vals)
	}
	masked := *snap
	masked.SetMask(2, recs[0].Seq)
	if vals, _ := masked.Get(id); vals[0] != n(1) {
		t.Fatalf("masked should expose the pre-write version, got %v", vals)
	}
}

func TestVisibleFacts(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("a")))
	st.Load(tup("C", c("b")))
	st.Load(tup("R", c("x"), c("y")))
	facts := st.Snap(0).VisibleFacts()
	if len(facts["C"]) != 2 || len(facts["R"]) != 1 {
		t.Fatalf("facts = %v", facts)
	}
	if _, ok := facts["S"]; ok {
		t.Fatal("empty relation must be omitted")
	}
}

func TestLookupContent(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("C", c("a")))
	got := st.Snap(0).LookupContent(tup("C", c("a")))
	if len(got) != 1 || got[0] != id {
		t.Fatalf("LookupContent = %v", got)
	}
	if got := st.Snap(0).LookupContent(tup("C", c("zzz"))); len(got) != 0 {
		t.Fatalf("LookupContent miss = %v", got)
	}
}
