package query

// The read-vector reference and the recorded answer's rendering, for
// the external cc battery (vector_universe_test.go).
var (
	VectorAffectedBy        = vectorAffectedBy
	VectorAffectedByRemoval = vectorAffectedByRemoval
)

// RecordedCanon renders the stored answer canonically.
func (q *ViolationRead) RecordedCanon() string { return q.recordedCanon() }
