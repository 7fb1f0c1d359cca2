package query

import (
	"sort"
	"testing"
)

// TestEngineOnEpochSnapshot runs the violation-discovery engine over a
// wait-free epoch snapshot and asserts it sees exactly the committed
// state a locked committed-reader snapshot sees: the same violations
// (by canonical witness signature), with uncommitted writers' tuples
// invisible. Epoch snapshots feed read-heavy consumers (checkpointer,
// the multicore study's reader goroutines), so the query layer has to
// produce identical answers over them.
func TestEngineOnEpochSnapshot(t *testing.T) {
	st, set := fig2(t)

	// A committed violating insert (Example 1.1's tuple, committed this
	// time) and an uncommitted insert that would violate sigma1.
	if _, _, ins, err := st.Insert(1, tup("T", c("Niagara Falls"), c("ABC Tours"), n(5))); err != nil || !ins {
		t.Fatalf("insert: %v %v", ins, err)
	}
	if err := st.CommitBatch([]int{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, ins, err := st.Insert(2, tup("C", c("Rochester"))); err != nil || !ins {
		t.Fatalf("uncommitted insert: %v %v", ins, err)
	}

	sigs := func(e *Engine) []string {
		vs := e.AllViolations(set)
		out := make([]string, len(vs))
		for i := range vs {
			out[i] = e.WitnessSig(&vs[i])
		}
		sort.Strings(out)
		return out
	}
	// Reads are priority-windowed: Snap(r) is the state as of update r,
	// so reader 1 is the locked oracle for the committed instance here
	// (writer 2's tuple is above its window and uncommitted besides).
	committed := engineAt(st, 1)
	epoch := NewEngine(st.EpochSnap())

	want := sigs(committed)
	if len(want) == 0 {
		t.Fatal("committed reader must see the sigma3 violation")
	}
	got := sigs(epoch)
	if len(got) != len(want) {
		t.Fatalf("epoch engine violations = %v, committed reader = %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch engine violations = %v, committed reader = %v", got, want)
		}
	}

	// Writer 2's tuple is live to its own engine, absent from the epoch.
	if vs := engineAt(st, 2).AllViolations(set); len(vs) <= len(want) {
		t.Fatalf("writer 2 must also see its own sigma1 violation, got %v", vs)
	}
	if n := epoch.Snapshot().CountRel("C"); n != 2 {
		t.Fatalf("epoch C count = %d, want the 2 committed cities", n)
	}
}
