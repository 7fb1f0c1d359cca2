package storage

import (
	"fmt"
	"slices"
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

// rowIDs returns the IDs of the rows ProbeRows gives for (rel, col, v)
// with no filter: the visible tuples whose column col holds v, every
// visible tuple when col < 0.
func rowIDs(sn *Snapshot, rel string, col int, v model.Value) []TupleID {
	rows, _ := sn.ProbeRows(rel, col, v, nil, nil)
	var ids []TupleID
	for _, row := range rows {
		ids = append(ids, row.ID)
	}
	return ids
}

// countRel returns the number of tuples of rel visible in sn.
func countRel(sn *Snapshot, rel string) int { return len(rowIDs(sn, rel, -1, model.Value{})) }

// lookupContent returns the IDs of the visible tuples whose content
// equals t: a scan that keeps the equal rows.
func lookupContent(sn *Snapshot, t model.Tuple) []TupleID {
	rows, _ := sn.ProbeRows(t.Rel, -1, model.Value{}, nil, func(vals []model.Value) (bool, bool) {
		return slices.Equal(vals, t.Vals), false
	})
	var ids []TupleID
	for _, row := range rows {
		ids = append(ids, row.ID)
	}
	return ids
}

// contains reports whether a tuple with t's content is visible in sn.
func contains(sn *Snapshot, t model.Tuple) bool { return len(lookupContent(sn, t)) > 0 }

// indexIDs returns a copy of the members of rel an index lists for v,
// visible or not: for a constant what the stripe index of column col
// lists under v's key, for a labeled null the stripe's sub-run of the null
// index's run, whatever the column. It is what the index holds, which
// the probes then check against the versions.
func indexIDs(st *Store, rel string, col int, v model.Value) []TupleID {
	st.rlock()
	defer st.runlock()
	s := st.stripes[rel]
	if v.IsNull() {
		var c postCursor[uint64]
		st.nullRun(&c, s, v)
		return drain(&c)
	}
	return s.valIdx[col].appendMembers(nil, st.key(v.Hash()))
}

func TestSnapshotCountRel(t *testing.T) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("a")))
	st.Load(tup("C", c("b")))
	st.DeleteContent(3, tup("C", c("a")))
	if got := countRel(st.Snap(0), "C"); got != 2 {
		t.Fatalf("count at reader 0 = %d", got)
	}
	if got := countRel(st.Snap(3), "C"); got != 1 {
		t.Fatalf("count at reader 3 = %d", got)
	}
}

// TestProbeRowsCountsOnlyExaminedCandidates: a keep that stops at the
// first row of a 100-row scan, or of a probe listing 100 candidates,
// leaves the other 99 unvisited, and the probe reports 1 examined.
func TestProbeRowsCountsOnlyExaminedCandidates(t *testing.T) {
	st := NewStore(testSchema())
	for i := range 100 {
		st.Load(tup("S", c(fmt.Sprint("code", i)), c("NYC"), c("NYC")))
	}
	snap := st.Snap(0)
	stopFirst := func([]model.Value) (bool, bool) { return true, true }
	if rows, n := snap.ProbeRows("S", -1, model.Value{}, nil, stopFirst); len(rows) != 1 || n != 1 {
		t.Fatalf("stopped scan took %d rows, %d examined; want 1 and 1", len(rows), n)
	}
	if rows, n := snap.ProbeRows("S", 1, c("NYC"), nil, stopFirst); len(rows) != 1 || n != 1 {
		t.Fatalf("stopped probe took %d rows, %d examined; want 1 and 1", len(rows), n)
	}
	if _, n := snap.ProbeRows("S", 1, c("NYC"), nil, nil); n != 100 {
		t.Fatalf("full probe examined %d candidates, want 100", n)
	}
}

// TestSnapshotProbeRows checks a probe's rows and its count of
// candidates examined: by value, by a value the index folds onto a
// colliding key, as a scan, filtered by keep, on an out-of-range
// column and an undeclared relation.
func TestSnapshotProbeRows(t *testing.T) {
	st := NewStore(testSchema())
	id1, _ := st.Load(tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	id2, _ := st.Load(tup("S", c("JFK"), c("NYC"), c("NYC")))
	st.DeleteContent(3, tup("S", c("JFK"), c("NYC"), c("NYC")))
	snap := st.Snap(0)
	rows, n := snap.ProbeRows("S", 0, c("SYR"), nil, nil)
	if len(rows) != 1 || rows[0].ID != id1 || !slices.Equal(rows[0].Vals, []model.Value{c("SYR"), c("Syracuse"), c("Ithaca")}) || n != 1 {
		t.Fatalf("probe rows = %v, %d examined", rows, n)
	}
	rows, n = snap.ProbeRows("S", -1, model.Value{}, rows[:0], nil)
	if len(rows) != 2 || rows[0].ID != id1 || rows[1].ID != id2 || n != 2 {
		t.Fatalf("scan rows = %v, %d examined", rows, n)
	}
	// Reader 3 deleted JFK: the scan still examines it, and drops it.
	if rows, n := st.Snap(3).ProbeRows("S", -1, model.Value{}, nil, nil); len(rows) != 1 || n != 2 {
		t.Fatalf("scan at reader 3 = %v, %d examined", rows, n)
	}
	keepNYC := func(vals []model.Value) (bool, bool) { return vals[2] == c("NYC"), false }
	if rows, n := snap.ProbeRows("S", -1, model.Value{}, nil, keepNYC); len(rows) != 1 || rows[0].ID != id2 || n != 2 {
		t.Fatalf("filtered scan = %v, %d examined", rows, n)
	}
	stopFirst := func([]model.Value) (bool, bool) { return true, true }
	if rows, n := snap.ProbeRows("S", -1, model.Value{}, nil, stopFirst); len(rows) != 1 || rows[0].ID != id1 || n != 1 {
		t.Fatalf("scan stopped at its first row = %v, %d examined", rows, n)
	}
	if rows, n := snap.ProbeRows("S", 7, c("SYR"), nil, nil); rows != nil || n != 0 {
		t.Fatalf("out-of-range column returned %v, %d examined", rows, n)
	}
	if rows, n := snap.ProbeRows("Nope", -1, model.Value{}, nil, nil); rows != nil || n != 0 {
		t.Fatalf("undeclared relation returned %v, %d examined", rows, n)
	}

	// Every value folds onto one key: the index lists both tuples under
	// SYR's, and the probe returns only the one that holds it.
	collide := NewStore(testSchema())
	collide.collideKeys = true
	syr, _ := collide.Load(tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	collide.Load(tup("S", c("JFK"), c("NYC"), c("NYC")))
	if rows, n := collide.Snap(0).ProbeRows("S", 0, c("SYR"), nil, nil); len(rows) != 1 || rows[0].ID != syr || n != 2 {
		t.Fatalf("probe under a colliding key = %v, %d examined", rows, n)
	}
}

func TestSnapshotGetTupleAndRel(t *testing.T) {
	st := NewStore(testSchema())
	id, _ := st.Load(tup("C", c("a")))
	tp, ok := st.Snap(0).GetTuple(id)
	if !ok || tp.String() != "C(a)" {
		t.Fatalf("GetTuple = %v %v", tp, ok)
	}
	if _, ok := st.Snap(0).GetTuple(999); ok {
		t.Fatal("GetTuple on unknown id")
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
	got := st.Snap(0).MoreSpecificInto(pattern, nil)
	if len(got) != 2 || got[0] != idNYC || got[1] != idNull {
		t.Fatalf("MoreSpecific = %v, want [%d %d]", got, idNYC, idNull)
	}

	// The exact same content is excluded.
	got = st.Snap(0).MoreSpecificInto(tup("S", n(1), n(2), c("NYC")), nil)
	if len(got) != 1 || got[0] != idNYC {
		t.Fatalf("MoreSpecific excluding self = %v", got)
	}
}

func TestSnapshotMoreSpecificNoConstants(t *testing.T) {
	st := NewStore(testSchema())
	idA, _ := st.Load(tup("C", c("a")))
	idN, _ := st.Load(tup("C", n(5)))
	got := st.Snap(0).MoreSpecificInto(tup("C", n(9)), nil)
	if len(got) != 2 || got[0] != idA || got[1] != idN {
		t.Fatalf("MoreSpecific full scan = %v", got)
	}
}

func TestSnapshotMoreSpecificRepeatedNullConstraint(t *testing.T) {
	st := NewStore(testSchema())
	idAA, _ := st.Load(tup("R", c("a"), c("a")))
	st.Load(tup("R", c("a"), c("b")))
	// R(x1, x1) demands equal values positionwise.
	got := st.Snap(0).MoreSpecificInto(tup("R", n(1), n(1)), nil)
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
	got := lookupContent(st.Snap(0), tup("C", c("a")))
	if len(got) != 1 || got[0] != id {
		t.Fatalf("lookup = %v", got)
	}
	if got := lookupContent(st.Snap(0), tup("C", c("zzz"))); len(got) != 0 {
		t.Fatalf("lookup miss = %v", got)
	}
}
