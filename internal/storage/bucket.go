package storage

import "slices"

// bucket is a posting list: the IDs of the tuples indexed under one key
// (a column value, a content hash, a labeled null, a relation), strictly
// ascending. It is a set. A tuple belongs while at least one of its
// versions carries the key; the store adds it with every such version
// and removes it when an abort takes the last one away (unindexVersion
// decides that from the version chain, so nothing is counted here).
//
// ids returns the list itself — no copy, no lock — and callers keep
// reading it after they release the stripe lock (RelIDs,
// CandidatesByValue, the null index). The rule that keeps a returned
// slice valid for ever: elements below a list's length are never
// overwritten.
//
//   - A member larger than the last one is appended in place. IDs are
//     minted ascending per stripe, so every fresh insert is this case;
//     it writes only past the length a reader holds, and append copies
//     when capacity runs out.
//   - Any other new member (ReplaceNull giving an old tuple a new value,
//     the cross-stripe null index, replay) gets a fresh array.
//   - Removing the last member reslices with the capacity clamped to the
//     new length, so the next append copies instead of reusing the slot;
//     removing any other member (aborts only) gets a fresh array.
//
// Mutators hold the write lock that guards the bucket.
type bucket struct {
	list []TupleID
	// one backs the list of a bucket that has only ever had one member —
	// most of them — so a singleton costs no second allocation. It is
	// written once, while list is still nil.
	one [1]TupleID
}

// add makes id a member; adding a member again changes nothing.
func (b *bucket) add(id TupleID) {
	n := len(b.list)
	if n == 0 || id > b.list[n-1] {
		if b.list == nil {
			b.one[0] = id
			b.list = b.one[:]
		} else {
			b.list = append(b.list, id)
		}
		return
	}
	if i, found := slices.BinarySearch(b.list, id); !found {
		b.list = slices.Concat(b.list[:i], []TupleID{id}, b.list[i:])
	}
}

// remove drops id, if it is a member, and reports whether the bucket is
// now empty.
func (b *bucket) remove(id TupleID) bool {
	i, found := slices.BinarySearch(b.list, id)
	switch last := len(b.list) - 1; {
	case !found:
	case i == last:
		b.list = b.list[:last:last]
	default:
		b.list = slices.Concat(b.list[:i], b.list[i+1:])
	}
	return len(b.list) == 0
}

// ids returns the members in ascending order. The slice is shared:
// callers must not modify it, and may keep it (see the type comment).
func (b *bucket) ids() []TupleID {
	if b == nil {
		return nil
	}
	return b.list
}
