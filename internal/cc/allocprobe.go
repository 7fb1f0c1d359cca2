package cc

import (
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
)

// CandidateProbe returns a closure performing one conflict-candidate
// collection over a synthetic population of n live transactions with
// stored reads — the hot coordination step of both schedulers' write
// phase. The closure reuses a scratch buffer across calls, so
// after a warm-up call it exhibits the steady-state allocation
// behaviour of the real step: zero heap allocations, asserted by the
// cc tests and published as allocs/op into the bench artifacts CI
// gates (experiments.ParallelStudy).
func CandidateProbe(n int) func() {
	txns := make([]*Txn, n)
	for i := range txns {
		u := chase.NewUpdate(i+1, chase.Op{})
		u.RecordRead(&query.ContentRead{
			Rel:      "R",
			Vals:     []model.Value{model.Const("probe")},
			ReaderNo: i + 1,
		})
		txns[i] = &Txn{Upd: u, Number: i + 1, deps: make(map[int]bool)}
	}
	var scratch []*Txn
	return func() {
		scratch = candidatesInto(scratch[:0], txns, 1)
	}
}
