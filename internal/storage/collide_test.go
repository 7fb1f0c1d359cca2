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
		{"ConformanceNullProbe", TestConformanceNullProbe},
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

// versionsSharingAKey: a tuple whose versions share index keys loses
// some of them to an abort or to a trim, and must stay listed under
// every key a version left still carries: the audit passes, and the
// value, content and more-specific probes for what remains answer as
// they do with the real fold. Two subjects:
//
//   - a labeled null and the constant that replaced it, R(x, k) and
//     R(a, k). A null is listed in the null index only, so the two share
//     no column key; under the forced fold they share the content key.
//     The abort leaves the null, listed in the null index and no longer
//     under column a's constant key; the trim leaves the constant.
//   - two constants that replaced one null in the same column, a by
//     writer 1 and b by writer 2 (which wrote first), so the chain runs
//     R(x, k), R(a, k), R(b, k). Under the forced fold a and b share
//     column a's key: aborting writer 1 or trimming its version must
//     leave the tuple listed there for b.
func versionsSharingAKey(t *testing.T) {
	x, a, b, k := model.Null(1), model.Const("a"), model.Const("b"), model.Const("k")
	type subject struct {
		name  string
		write func(st *Store) error
		// writers to commit, in order, for the trim; the abort aborts
		// the first
		writers             []int
		leftAbort, leftTrim model.Tuple
		versionsAbort       int
	}
	subjects := []subject{
		{"NullAndConstant", func(st *Store) error {
			_, err := st.ReplaceNull(1, x, a)
			return err
		}, []int{1}, model.NewTuple("R", x, k), model.NewTuple("R", a, k), 1},
		{"TwoConstants", func(st *Store) error {
			if _, err := st.ReplaceNull(2, x, b); err != nil {
				return err
			}
			_, err := st.ReplaceNull(1, x, a)
			return err
		}, []int{1, 2}, model.NewTuple("R", b, k), model.NewTuple("R", b, k), 2},
	}
	for _, finish := range []string{"abort", "trim"} {
		t.Run(finish, func(t *testing.T) {
			for _, sub := range subjects {
				t.Run(sub.name, func(t *testing.T) {
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
						if err := sub.write(st); err != nil {
							t.Fatal(err)
						}
						left, versions := sub.leftTrim, 1
						if finish == "abort" {
							st.Abort(sub.writers[0])
							left, versions = sub.leftAbort, sub.versionsAbort
						} else {
							for _, w := range sub.writers {
								if err := st.Commit(w); err != nil {
									t.Fatal(err)
								}
							}
						}
						if got := st.Stats().Versions; got != versions {
							t.Fatalf("%d versions left, want %d", got, versions)
						}
						mustAudit(t, st)
						snap := st.Snap(maxReader)
						cands := indexIDs(st, "R", 0, left.Vals[0])
						if len(cands) != 1 || cands[0] != id {
							t.Fatalf("collide %v: probe for %s gives %v, want [%d]", collide, left.Vals[0], cands, id)
						}
						answers[i] = fmt.Sprint(cands, rowIDs(snap, "R", 0, left.Vals[0]), lookupContent(snap, left), snap.MoreSpecificInto(model.NewTuple("R", left.Vals[0], model.Null(9)), nil), st.Dump(maxReader))
					}
					if answers[0] != answers[1] {
						t.Fatalf("colliding keys answer %s, the real fold %s", answers[0], answers[1])
					}
				})
			}
		})
	}
}
