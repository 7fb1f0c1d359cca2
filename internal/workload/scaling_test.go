package workload

import (
	"fmt"
	"testing"

	"youtopia/internal/obs"
)

// scalingCounts is the chase's work while building one universe, read
// off the process-wide counters: chase steps, queue rechecks, join
// candidates examined, and candidates that matched their join step.
type scalingCounts struct {
	Steps, Rechecks, Candidates, Matched int64
}

func (c scalingCounts) String() string {
	per := func(n int64) float64 { return float64(n) / float64(max(c.Steps, 1)) }
	return fmt.Sprintf("%d steps, %d rechecks (%.1f/step), %d candidates (%.1f/step), %d matched (%.1f/step)",
		c.Steps, c.Rechecks, per(c.Rechecks), c.Candidates, per(c.Candidates), c.Matched, per(c.Matched))
}

// scalingWant pins the counts of building Default() at each initial
// size. They measure a defect: per chase step, candidates grow with
// the database (the chase is superlinear in its size), where they
// should stay near flat. A change may lower these figures with the
// mechanism named; raising one needs a stated reason.
//
// Rechecks count only the queue entries a step re-evaluates: those a
// write of the step or a frontier substitution may have changed
// (chase.recheckQueue). Re-evaluating every entry, as before, counted
// 15125, 57041 and 407796, and its RHS probes added 38790, 372655 and
// 9143641 candidates and 493, 1297 and 7195 matched rows.
//
// Candidates count the rows a probe examined (storage.Snapshot.ProbeRows):
// a probe whose keep stops early, as an existence check does at its
// first match, no longer counts the rows after the stop. Counting every
// listed row read 155726, 736031 and 6006331.
//
// A labeled null is listed in the store's null index only, not under
// its column (storage.stripe.valIdx). A probe for a null then examines
// every tuple of the relation holding that null in any column, which by
// itself adds 86, 96 and 96 candidates. The planner's Distinct now
// counts a column's constant keys alone, so a column holding many
// nulls no longer looks selective, and the join orders that change cut
// candidates from 118363, 539352 and 4849263 to the figures below.
// Those orders also match 18, 19 and 8 more rows on their way: the
// rise is in intermediate join rows, not in answers, as steps and
// rechecks are unchanged. Counting null keys in Distinct again, as a
// check, gives back the earlier matched counts exactly.
var scalingWant = map[int]scalingCounts{
	5000:  {9943, 5226, 112338, 28676},
	10000: {22322, 14032, 517917, 89730},
	20000: {55625, 50961, 4773721, 385430},
}

// TestChaseScalingCounts builds the §6 universe at 5k, 10k and 20k
// initial tuples and pins the chase's work per size exactly: the serial
// build is deterministic, so the counts are too. It is the scaling
// gate for the work a chase step does as the database grows.
func TestChaseScalingCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-scale universes")
	}
	if raceEnabled {
		t.Skip("deterministic serial build; its counts need no race detector")
	}
	counter := func(name string) int64 { return obs.Default.Counter(name).Value() }
	read := func() scalingCounts {
		return scalingCounts{counter("chase_steps_total"), counter("chase_rechecks_total"),
			counter("query_join_steps_total"), counter("query_rows_matched_total")}
	}
	for _, n := range []int{5000, 10000, 20000} {
		cfg := Default()
		cfg.InitialTuples = n
		before := read()
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
		after := read()
		got := scalingCounts{after.Steps - before.Steps, after.Rechecks - before.Rechecks,
			after.Candidates - before.Candidates, after.Matched - before.Matched}
		t.Logf("%d initial tuples: %v", n, got)
		if want := scalingWant[n]; got != want {
			t.Errorf("%d initial tuples: got {%d, %d, %d, %d}, want {%d, %d, %d, %d}",
				n, got.Steps, got.Rechecks, got.Candidates, got.Matched,
				want.Steps, want.Rechecks, want.Candidates, want.Matched)
		}
	}
}
