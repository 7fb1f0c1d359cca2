package query

import (
	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// The read-vector reference, the recorded answer's rendering and its
// arrays, for the external cc batteries (vector_universe_test.go,
// readalias_test.go).
var (
	VectorAffectedBy        = vectorAffectedBy
	VectorAffectedByRemoval = vectorAffectedByRemoval
)

// RecordedCanon renders the stored answer canonically.
func (q *ViolationRead) RecordedCanon() string { return q.recordedCanon() }

// AnswerArrays returns the stored answer's arrays and whether the read
// owns them.
func (q *ViolationRead) AnswerArrays() ([]model.Value, []storage.TupleID, bool) {
	return q.vals, q.witness, q.owned
}
