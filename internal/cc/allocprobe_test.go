package cc

import (
	"testing"
)

// TestCandidateCollectionAllocFree: conflict-candidate collection
// performs zero heap allocations per step in steady state — the candidates are appended
// pointer-by-pointer into a warm scratch buffer, with no locking,
// copying, or map traffic.
func TestCandidateCollectionAllocFree(t *testing.T) {
	probe := CandidateProbe(64)
	probe() // warm the scratch buffer
	if got := testing.AllocsPerRun(200, probe); got != 0 {
		t.Fatalf("candidate collection allocates %.1f/op in steady state, want 0", got)
	}
}
