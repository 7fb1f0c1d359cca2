package chase

import (
	"youtopia/internal/model"
	"youtopia/internal/query"
)

// readPool holds an engine's released stored reads, one free list per
// kind, for its read sites to refill. A stored read lives until its
// update commits, is cancelled or restarts (Update.ReleaseReads,
// Update.Reset); the pool hands the record to the next read instead of
// allocating one. Only records an engine built come back.
//
// A violation read whose answer held several violations owns the
// arrays they were copied into (query.ViolationRead.Store). Such a
// record keeps its arrays on the owned list, and the next answer of
// several violations takes the one whose arrays fit it best; every
// other violation read takes a record from viols.
//
// The pool takes no lock: its engine's read sites and every release of
// a log it filled run on the goroutine that steps the engine (a
// scheduler runs its whole run on the goroutine that called Run).
type readPool struct {
	viols    []*query.ViolationRead
	owned    []*query.ViolationRead
	ownedLen int // the capacity of the owned records' arrays, summed
	contents []*query.ContentRead
	patterns []*query.MoreSpecificRead
	nullOccs []*query.NullOccRead
}

// Bounds on the free lists. Each holds at most maxPooledReads records:
// a longer list mostly grows its own array, since a scheduler's last
// commits release records that no later read takes, and on coop_dense
// a bound of 64 allocated less than 128 or 1,024. At most
// maxOwnedAnswers records keep their answer arrays, whose capacities
// sum to at most maxOwnedArrays values and tuple IDs (under 512 KiB).
// Beyond a bound a released record, or its arrays, are left to the
// collector.
const (
	maxPooledReads  = 64
	maxOwnedAnswers = 64
	maxOwnedArrays  = 1 << 15
)

// take returns a record from a free list, or a new one.
func take[T any](list *[]*T) *T {
	if n := len(*list); n > 0 {
		q := (*list)[n-1]
		*list = (*list)[:n-1]
		return q
	}
	return new(T)
}

// keep puts a released record on a free list that has room.
func keep[T any](list *[]*T, q *T) {
	if len(*list) < maxPooledReads {
		*list = append(*list, q)
	}
}

// violation returns a record for query.ViolationRead.Store to store
// the answer vs in: for several violations, the owned record whose
// arrays fit them with the least to spare, when one does.
func (p *readPool) violation(vs []query.Violation) *query.ViolationRead {
	if len(vs) > 1 {
		best, slack := -1, 0
		for i, q := range p.owned {
			if s := q.Slack(vs); s >= 0 && (best < 0 || s < slack) {
				best, slack = i, s
			}
		}
		if best >= 0 {
			q := p.owned[best]
			p.ownedLen -= q.Slack(nil)
			last := len(p.owned) - 1
			p.owned[best] = p.owned[last]
			p.owned = p.owned[:last]
			return q
		}
	}
	return take(&p.viols)
}

// content returns the content probe of (rel, vals) by reader.
func (p *readPool) content(rel string, vals []model.Value, reader int) *query.ContentRead {
	q := take(&p.contents)
	*q = query.ContentRead{Rel: rel, Vals: vals, ReaderNo: reader}
	return q
}

// moreSpecific returns the correction query for tuples of t.Rel more
// specific than t, by reader.
func (p *readPool) moreSpecific(t model.Tuple, reader int) *query.MoreSpecificRead {
	q := take(&p.patterns)
	*q = query.MoreSpecificRead{Rel: t.Rel, Pattern: t.Vals, ReaderNo: reader}
	return q
}

// nullOcc returns the correction query for the tuples holding null, by
// reader.
func (p *readPool) nullOcc(null model.Value, reader int) *query.NullOccRead {
	q := take(&p.nullOccs)
	*q = query.NullOccRead{Null: null, ReaderNo: reader}
	return q
}

// release empties a stored read the pool's engine built, leaving its
// reader query.ReleasedReader, and keeps it for the next read of its
// kind.
func (p *readPool) release(q query.ReadQuery) {
	switch q := q.(type) {
	case *query.ViolationRead:
		if n := q.Slack(nil); n >= 0 && p.ownedLen+n <= maxOwnedArrays && len(p.owned) < maxOwnedAnswers {
			q.Release() // keeps the arrays it owns
			p.owned = append(p.owned, q)
			p.ownedLen += n
			return
		}
		*q = query.ViolationRead{ReaderNo: query.ReleasedReader}
		keep(&p.viols, q)
	case *query.ContentRead:
		*q = query.ContentRead{ReaderNo: query.ReleasedReader}
		keep(&p.contents, q)
	case *query.MoreSpecificRead:
		*q = query.MoreSpecificRead{ReaderNo: query.ReleasedReader}
		keep(&p.patterns, q)
	case *query.NullOccRead:
		*q = query.NullOccRead{ReaderNo: query.ReleasedReader}
		keep(&p.nullOccs, q)
	}
}
