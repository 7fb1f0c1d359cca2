package storage

import (
	"fmt"
	"slices"
)

// postings is a secondary index: for each key the set of tuples indexed
// under it, as a strictly ascending list of IDs. A tuple belongs while
// at least one of its versions carries the key; the store adds it with
// every such version and removes it when an abort or a trim takes the
// last one away (unindexVersion decides that from the version chain, so
// nothing is counted here).
//
// W is the width of a key and of a map slot. The stripe indexes
// (stripe.valIdx, stripe.contentIdx) are postings[uint32]: a key is the
// 32-bit fold of a value's Hash or a content hash (Store.key), so one
// key may stand for several values, and a slot holds a member's
// stripe-local counter, base (the stripe's bits) added back on the way
// out. The cross-stripe null index is postings[uint64]: keys are a
// null's full Hash, slots full TupleIDs, base 0.
//
// The map holds no pointers, so the collector never scans it, and no
// key owns an object of its own. Most keys have one member, and their
// map slot is that member, as its ID less base. A key with more members
// maps to a tagged reference into lists: no member's slot has W's top
// bit set, so the slot listTag|i names lists[i]. A slot that a list
// leaves (its key emptied or went back to one member) is put on free
// and reused by the next list; the array it held is dropped.
//
// Index lists are the store's own. Mutators change them in place under
// the store's write lock — a member inserted or removed in the middle
// shifts the array, which reallocates only when full — and no reader
// keeps a list past the read lock it read it under: readers receive
// copies, in buffers they own, taken under that lock
// (Snapshot.ProbeRows copies rows, Store.appendNullIDs the null
// index's IDs). The member list of a relation (stripe.ids) follows the
// same rule.
//
// Mutators hold the store's write lock. The zero value is an empty
// index with base 0.
type postings[W uint32 | uint64] struct {
	m     map[W]W
	lists [][]TupleID
	free  []int
	base  TupleID
}

// listTag is the top bit of W, set in a slot that names a list.
func listTag[W uint32 | uint64]() W { return ^(^W(0) >> 1) }

// get returns the members under k in ascending order: nil, one[:] with
// the single member written to one, or the index's own list, which
// callers must not modify and must not keep past the lock they read it
// under.
func (p *postings[W]) get(k W, one *[1]TupleID) []TupleID {
	v, ok := p.m[k]
	switch {
	case !ok:
		return nil
	case v&listTag[W]() == 0:
		one[0] = p.base + TupleID(v)
		return one[:]
	}
	return p.lists[v&^listTag[W]()]
}

// count returns the number of members under k.
func (p *postings[W]) count(k W) int {
	v, ok := p.m[k]
	switch {
	case !ok:
		return 0
	case v&listTag[W]() == 0:
		return 1
	}
	return len(p.lists[v&^listTag[W]()])
}

// add makes id a member under k; adding a member again changes nothing.
func (p *postings[W]) add(k W, id TupleID) {
	if p.m == nil {
		p.m = make(map[W]W)
	}
	slot := W(id - p.base)
	v, ok := p.m[k]
	switch {
	case !ok:
		p.m[k] = slot
	case v == slot:
	case v&listTag[W]() == 0:
		old := p.base + TupleID(v)
		p.m[k] = p.newList([]TupleID{min(old, id), max(old, id)})
	default:
		i := v &^ listTag[W]()
		p.lists[i] = addID(p.lists[i], id)
	}
}

// remove drops id from the members under k, if it is one.
func (p *postings[W]) remove(k W, id TupleID) {
	slot := W(id - p.base)
	v, ok := p.m[k]
	switch {
	case !ok || v&listTag[W]() == 0 && v != slot:
	case v == slot:
		delete(p.m, k)
	default:
		i := int(v &^ listTag[W]())
		list := removeID(p.lists[i], id)
		if len(list) > 1 {
			p.lists[i] = list
			return
		}
		p.m[k] = W(list[0] - p.base)
		p.lists[i] = nil
		p.free = append(p.free, i)
	}
}

// newList stores a list of two or more members in a free slot and
// returns the reference the map holds for it.
func (p *postings[W]) newList(list []TupleID) W {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		p.lists[i] = list
		return listTag[W]() | W(i)
	}
	p.lists = append(p.lists, list)
	return listTag[W]() | W(len(p.lists)-1)
}

// checkLayout reports the first breach of the layout: a key naming a
// table slot that holds fewer than two members or that another key
// names, or a slot neither named by a key nor free and empty.
func (p *postings[W]) checkLayout() error {
	named := make([]bool, len(p.lists))
	for k, v := range p.m {
		if v&listTag[W]() == 0 {
			continue
		}
		i := v &^ listTag[W]()
		if len(p.lists[i]) < 2 || named[i] {
			return fmt.Errorf("key %d names table slot %d holding %v, which is not its own list of two or more", k, i, p.lists[i])
		}
		named[i] = true
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

// addID returns the ascending list with id a member, changed in place:
// it reallocates only when the array is full.
func addID(list []TupleID, id TupleID) []TupleID {
	if n := len(list); n == 0 || id > list[n-1] {
		return append(list, id)
	}
	if i, found := slices.BinarySearch(list, id); !found {
		return slices.Insert(list, i, id)
	}
	return list
}

// removeID returns the ascending list without id, changed in place.
func removeID(list []TupleID, id TupleID) []TupleID {
	if i, found := slices.BinarySearch(list, id); found {
		return slices.Delete(list, i, i+1)
	}
	return list
}
