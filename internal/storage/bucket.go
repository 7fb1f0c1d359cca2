package storage

import (
	"fmt"
	"slices"
)

// postings is a secondary index: for each key (a column value's Hash, a
// content hash, a labeled null's Hash) the set of tuples indexed under
// it, as a strictly ascending list of IDs. A tuple belongs while at
// least one of its versions carries the key; the store adds it with
// every such version and removes it when an abort or a trim takes the
// last one away (unindexVersion decides that from the version chain, so
// nothing is counted here).
//
// The map holds no pointers, so the collector never scans it, and no
// key owns an object of its own. Most keys have one member, and their
// map value is that member's ID. A key with more members maps to a
// tagged reference into lists: TupleIDs are positive, so the negative
// value ^i names lists[i]. A slot that a list leaves (its key emptied
// or went back to one member) is put on free and reused by the next
// list; the array it held is dropped, never written again.
//
// get returns a single member in a buffer the caller owns, and a list
// as itself — no copy, no lock — and callers keep reading a list after
// they release the lock guarding the index (CandidatesByValue, the null
// index). The member list of a relation (stripe.ids, RelIDs) is a plain
// list under the same rule, the one that keeps a returned slice valid
// for ever: elements below a list's length are never overwritten.
//
//   - A member larger than the last one is appended in place. IDs are
//     minted ascending per stripe, so every fresh insert is this case;
//     it writes only past the length a reader holds, and append copies
//     when capacity runs out.
//   - Any other new member (ReplaceNull giving an old tuple a new value,
//     the cross-stripe null index, replay), and every key that grows
//     from one member to two, gets a fresh array.
//   - Removing the last member reslices with the capacity clamped to the
//     new length, so the next append copies instead of reusing the slot;
//     removing any other member (aborts and trims) gets a fresh array.
//
// Mutators hold the write lock that guards the index. The zero value is
// an empty index.
type postings struct {
	m     map[uint64]TupleID
	lists [][]TupleID
	free  []int
}

// get returns the members under k in ascending order: nil, one[:] with
// the single member written to one, or the shared list, which callers
// must not modify and may keep.
func (p *postings) get(k uint64, one *[1]TupleID) []TupleID {
	v, ok := p.m[k]
	switch {
	case !ok:
		return nil
	case v > 0:
		one[0] = v
		return one[:]
	}
	return p.lists[^v]
}

// count returns the number of members under k.
func (p *postings) count(k uint64) int {
	v, ok := p.m[k]
	switch {
	case !ok:
		return 0
	case v > 0:
		return 1
	}
	return len(p.lists[^v])
}

// add makes id a member under k; adding a member again changes nothing.
func (p *postings) add(k uint64, id TupleID) {
	if p.m == nil {
		p.m = make(map[uint64]TupleID)
	}
	v, ok := p.m[k]
	switch {
	case !ok:
		p.m[k] = id
	case v == id:
	case v > 0:
		p.m[k] = p.newList([]TupleID{min(v, id), max(v, id)})
	default:
		p.lists[^v] = addID(p.lists[^v], id)
	}
}

// remove drops id from the members under k, if it is one.
func (p *postings) remove(k uint64, id TupleID) {
	v, ok := p.m[k]
	switch {
	case !ok || v > 0 && v != id:
	case v == id:
		delete(p.m, k)
	default:
		i := int(^v)
		list := removeID(p.lists[i], id)
		if len(list) > 1 {
			p.lists[i] = list
			return
		}
		p.m[k] = list[0]
		p.lists[i] = nil
		p.free = append(p.free, i)
	}
}

// newList stores a list of two or more members in a free slot and
// returns the reference the map holds for it.
func (p *postings) newList(list []TupleID) TupleID {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		p.lists[i] = list
		return ^TupleID(i)
	}
	p.lists = append(p.lists, list)
	return ^TupleID(len(p.lists) - 1)
}

// checkLayout reports the first breach of the layout: a key naming a
// table slot that holds fewer than two members or that another key
// names, or a slot neither named by a key nor free and empty.
func (p *postings) checkLayout() error {
	named := make([]bool, len(p.lists))
	for k, v := range p.m {
		if v < 0 {
			if len(p.lists[^v]) < 2 || named[^v] {
				return fmt.Errorf("key %d names table slot %d holding %v, which is not its own list of two or more", k, ^v, p.lists[^v])
			}
			named[^v] = true
		}
	}
	for _, i := range p.free {
		if named[i] || p.lists[i] != nil {
			return fmt.Errorf("free table slot %d is in use", i)
		}
		named[i] = true
	}
	if i := slices.Index(named, false); i >= 0 {
		return fmt.Errorf("table slot %d is neither named by a key nor free", i)
	}
	return nil
}

// addID returns the ascending list with id a member, under the rule in
// the type comment.
func addID(list []TupleID, id TupleID) []TupleID {
	n := len(list)
	if n == 0 || id > list[n-1] {
		return append(list, id)
	}
	if i, found := slices.BinarySearch(list, id); !found {
		return slices.Concat(list[:i], []TupleID{id}, list[i:])
	}
	return list
}

// removeID returns the ascending list without id, under the rule in the
// type comment.
func removeID(list []TupleID, id TupleID) []TupleID {
	i, found := slices.BinarySearch(list, id)
	switch last := len(list) - 1; {
	case !found:
		return list
	case i == last:
		return list[:last:last]
	default:
		return slices.Concat(list[:i], list[i+1:])
	}
}
