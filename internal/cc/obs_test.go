package cc

import (
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/simuser"
)

// The acceptance gate for the observability layer: the metric updates
// the schedulers make per step and per commit — counter bumps and
// histogram observations against live obs handles — must add zero
// heap allocations to the hot path, exactly like the candidate
// collection CandidateProbe pins.
func TestInstrumentationAllocFree(t *testing.T) {
	probe := InstrumentationProbe()
	probe() // warm the handles
	if got := testing.AllocsPerRun(200, probe); got != 0 {
		t.Fatalf("hot-path instrumentation allocates %.1f/op in steady state, want 0", got)
	}
}

// A traced cooperative run produces per-update timelines whose core
// chain (submit → step → commit → ack) is present and monotonic even
// without an inbox in play; the full parked chain is asserted
// end-to-end in internal/core.
func TestSchedulerTraceChain(t *testing.T) {
	tr := obs.NewTracer()
	_, set, st, err := fixtures.Travel()
	if err != nil {
		t.Fatal(err)
	}
	ops := []chase.Op{
		chase.Insert(model.NewTuple("V", model.Const("Syracuse"), model.Const("Math Conf"))),
	}
	s := NewScheduler(st, set, Config{
		Tracker: Coarse{}, User: simuser.New(1), Trace: tr,
	})
	if _, err := s.Run(ops); err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= len(ops); u++ {
		evs := tr.Events(u)
		var names []string
		for i, e := range evs {
			names = append(names, e.Name)
			if i > 0 && e.At.Before(evs[i-1].At) {
				t.Fatalf("update %d: timestamps not monotonic at %s", u, e.Name)
			}
		}
		for _, want := range []string{"submit", "step", "commit", "ack"} {
			found := false
			for _, n := range names {
				if n == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("update %d trace missing %q: %v", u, want, names)
			}
		}
	}
}
