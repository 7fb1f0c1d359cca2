package cc

import (
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
)

// CandidateProbe returns a closure performing one conflict-candidate
// collection — the hot coordination step of the scheduler's conflict
// processing — over a live window of n txn records with stored reads,
// for a write by its lowest-numbered one: the window's part above the
// writer is taken and filtered exactly as collectDirect does. The
// closure reuses a scratch buffer across calls, so after a warm-up
// call it exhibits the steady-state allocation behaviour of the real
// step: zero heap allocations, asserted by the cc tests and published
// as allocs/op into the bench artifacts CI gates
// (experiments.ParallelStudy).
func CandidateProbe(n int) func() {
	s := &Scheduler{window: make([]*Txn, n)}
	for i := range s.window {
		u := chase.NewUpdate(i+1, chase.Op{})
		u.RecordRead(&query.ContentRead{
			Rel:      "R",
			Vals:     []model.Value{model.Const("probe")},
			ReaderNo: i + 1,
		})
		s.window[i] = &Txn{Upd: u, Number: i + 1}
	}
	var scratch []*Txn
	return func() {
		scratch = candidatesInto(scratch[:0], above(s.live(), 1))
	}
}
