package storage

import (
	"fmt"
	"testing"

	"youtopia/internal/model"
)

// collideAll makes testStore fold every stripe index key to one
// constant. TestCollidingKeys sets it around the tests it runs again;
// no test in this package runs in parallel, so none sees it change.
var collideAll bool

// testStore is NewStore, with every stripe index key folded to 0 while
// collideAll is set.
func testStore(schema *model.Schema) *Store {
	st := NewStore(schema)
	st.collideKeys = collideAll
	return st
}

// TestCollidingKeys is the forced-collision battery. A stripe index key
// is a 32-bit fold, so distinct values — and distinct contents — may
// share one; every probe consumer checks its candidates against the
// values themselves, and a tuple leaves a key only when no remaining
// version carries a value with that key. With every value and content
// key folded to one constant, the conformance suite and the abort, trim
// and collapse tests must pass as they are, each ending with the index
// audit, and a tuple whose two versions share a key must stay listed
// when an abort or a trim takes one of them away.
func TestCollidingKeys(t *testing.T) {
	collideAll = true
	defer func() { collideAll = false }()
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ConformanceSnapshotIsolation", TestConformanceSnapshotIsolation},
		{"ConformanceAbortVisibility", TestConformanceAbortVisibility},
		{"ConformanceCommitOrdering", TestConformanceCommitOrdering},
		{"ConformanceHookMergeOrder", TestConformanceHookMergeOrder},
		{"ConformanceHookVeto", TestConformanceHookVeto},
		{"ConformanceReplaceNullSpansRelations", TestConformanceReplaceNullSpansRelations},
		{"ConformanceSnapshotFilters", TestConformanceSnapshotFilters},
		{"ConformanceDumpIdentity", TestConformanceDumpIdentity},
		{"ConformanceEpochCommittedView", TestConformanceEpochCommittedView},
		{"ConformanceEpochDumpIdentity", TestConformanceEpochDumpIdentity},
		{"AbortRestoresState", TestAbortRestoresState},
		{"AbortRandomizedInverse", TestAbortRandomizedInverse},
		{"CommitTrimsHistory", TestCommitTrimsHistory},
		{"TrimWaitsForLiveReaders", TestTrimWaitsForLiveReaders},
		{"ReplaceNullCollapsesDuplicates", TestReplaceNullCollapsesDuplicates},
		{"ReplaceNullCollapsesWithinBatch", TestReplaceNullCollapsesWithinBatch},
		{"VersionsSharingAKey", versionsSharingAKey},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// versionsSharingAKey: a tuple whose two versions hold different values
// under one key — a labeled null and the constant that replaced it —
// loses one of them to an abort or to a trim. The other still carries
// the key, so the tuple must stay listed under it: the audit passes,
// and the value, content and more-specific probes for what remains
// answer as they do with the real fold.
func versionsSharingAKey(t *testing.T) {
	x, a, k := model.Null(1), model.Const("a"), model.Const("k")
	for _, finish := range []string{"abort", "trim"} {
		t.Run(finish, func(t *testing.T) {
			var answers [2]string
			for i, collide := range []bool{true, false} {
				s := model.NewSchema()
				s.MustAddRelation("R", "a", "b")
				st := NewStore(s)
				st.collideKeys = collide
				id, err := st.Load(model.NewTuple("R", x, k))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.ReplaceNull(1, x, a); err != nil {
					t.Fatal(err)
				}
				left := model.NewTuple("R", x, k)
				if finish == "abort" {
					st.Abort(1)
				} else {
					if err := st.Commit(1); err != nil {
						t.Fatal(err)
					}
					left = model.NewTuple("R", a, k)
				}
				if got := st.Stats().Versions; got != 1 {
					t.Fatalf("%d versions left, want 1", got)
				}
				mustAudit(t, st)
				snap := st.Snap(maxReader)
				cands := indexIDs(st, "R", 0, left.Vals[0])
				if len(cands) != 1 || cands[0] != id {
					t.Fatalf("collide %v: probe for %s gives %v, want [%d]", collide, left.Vals[0], cands, id)
				}
				answers[i] = fmt.Sprint(cands, lookupContent(snap, left), snap.MoreSpecificInto(model.NewTuple("R", left.Vals[0], model.Null(9)), nil), st.Dump(maxReader))
			}
			if answers[0] != answers[1] {
				t.Fatalf("colliding keys answer %s, the real fold %s", answers[0], answers[1])
			}
		})
	}
}
