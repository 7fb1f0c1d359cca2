package storage

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// postings is a secondary index: for each key the set of tuples indexed
// under it. A tuple belongs while at least one of its versions carries
// the key; the store adds it with every such version and removes it
// when an abort or a trim takes the last one away (unindexVersion
// decides that from the version chain, so nothing is counted here).
//
// The index is one sorted run of (key, slot) entries, strictly
// ascending by key, then slot, held in fixed pages of postPageSize
// entries that a directory lists in order. A key's members are one
// contiguous ascending run of it, found by a search of the directory,
// then of a page (find), and read with a postCursor. W is the width
// of a key and of a slot. The stripe indexes (stripe.valIdx,
// stripe.contentIdx) are postings[uint32]: a key is the 32-bit fold of
// a value's Hash or a content hash (Store.key), so one key may stand
// for several values, and a slot holds a member's stripe-local counter,
// base (the stripe's bits) added back on the way out; a labeled null is
// not listed there. The cross-stripe null index is postings[uint64], the
// one index a null is listed in: keys are a null's full Hash, slots full
// TupleIDs, base 0, so a stripe's members under a null are a sub-run of
// that null's run, found by a seek to (Hash, the stripe's base).
//
// Pages hold no pointers, so the collector never scans them, and
// nothing is copied to grow: an insert shifts the entries of its own
// page, or of a neighbour that takes an entry off a full one; a full
// page whose neighbours are full splits into halves, which allocates
// one page, and an entry past the last goes on a new page. A
// removal shifts its own page; a page it empties leaves the directory,
// and two neighbouring pages merge when their entries fit in one, so
// any two neighbours hold more than postPageSize entries: P pages hold
// over half of their slots. Pages that leave a directory go on the
// store's bounded free list, which the next split or new page takes
// from. keys counts the distinct keys, the planner's Distinct.
//
// Index pages are the store's own. Mutators change them in place under
// the store's write lock, and no reader keeps a cursor or a member past
// the read lock it read it under: readers receive copies, in buffers
// they own, taken under that lock (Snapshot.ProbeRows copies rows,
// Store.appendNullIDs the null index's IDs). A relation's tuple table
// (stripe.pages) follows the same rule.
//
// Mutators hold the store's write lock. The zero value is an empty
// index with base 0 that keeps no free pages.
type postings[W uint32 | uint64] struct {
	pages []*postPage[W]
	keys  int // distinct keys
	base  TupleID
	free  *[]*postPage[W] // the store's free pages of this width, or nil
}

// postPageSize is the number of entries a page of an index holds.
const postPageSize = 32

// postPage is one fixed block of an index's run: 256 bytes for a
// stripe index, 512 for the null index. Its entries come first,
// ascending, keys[i] and slots[i] the i-th; a slot past them holds 0,
// which no member has (a TupleID's counter starts at 1), and key 0.
type postPage[W uint32 | uint64] struct {
	keys  [postPageSize]W
	slots [postPageSize]W
}

// below reports whether the entry (ak, as) sorts before (bk, bs).
func below[W uint32 | uint64](ak, as, bk, bs W) bool {
	return ak < bk || ak == bk && as < bs
}

// len returns the number of entries of the page.
func (pg *postPage[W]) len() int {
	if uint64(^W(0)) == math.MaxUint32 {
		return pg.rank(math.MaxUint64)
	}
	lo, hi := 0, postPageSize
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); pg.slots[m] != 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// search returns the slot of the entry (k, s) on the page, or the slot
// it would take: the first holding a larger entry or none.
func (pg *postPage[W]) search(k, s W) int {
	if uint64(^W(0)) == math.MaxUint32 {
		return pg.rank(max(uint64(k)<<32|uint64(s), 1))
	}
	lo, hi := 0, postPageSize
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); pg.slots[m] != 0 && below(pg.keys[m], pg.slots[m], k, s) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// rank returns the number of entries of a stripe index's page that sort
// below t > 0, an entry packed as key<<32 | slot. Taking one off both
// sides wraps a free slot's 0 to the largest word, so each step of the
// bisection is one comparison of words, whose borrow moves the position
// without a branch: branches mispredict about every other step on
// uniform keys.
func (pg *postPage[W]) rank(t uint64) int {
	t--
	below := func(i int) int {
		i &= postPageSize - 1
		_, b := bits.Sub64((uint64(pg.keys[i])<<32|uint64(pg.slots[i]))-1, t, 0)
		return int(b)
	}
	i := 0
	for half := postPageSize / 2; half > 0; half /= 2 {
		i += half * below(i+half)
	}
	return i + below(i)
}

// insert puts the entry (k, s) at slot i of a page holding n entries,
// fewer than postPageSize, shifting the entries from i on.
func (pg *postPage[W]) insert(i, n int, k, s W) {
	copy(pg.keys[i+1:n+1], pg.keys[i:n])
	copy(pg.slots[i+1:n+1], pg.slots[i:n])
	pg.keys[i], pg.slots[i] = k, s
}

// find returns the page j and slot i of the entry (k, s), or where it
// would go, and whether it is there: a search of the directory for the
// last page starting at or below the entry (the first page when none
// does), then a binary search of that page. An entry above all of page
// j's may still sort below page j+1's first, at slot i = page j's
// length.
//
// A stripe index's keys are uniform 32-bit folds, so a page's share of
// the key space is about its share of the directory: the directory
// search enters at the page that share names, and when that page and
// its neighbour bracket the entry, as they mostly do, no binary search
// is left. The null index's keys are null hashes, far from uniform, and
// it is searched by bisection alone.
func (p *postings[W]) find(k, s W) (j, i int, found bool) {
	lo, hi := 0, len(p.pages)
	if hi == 0 {
		return 0, 0, false
	}
	if uint64(^W(0)) == math.MaxUint32 && hi > 2 {
		if g := int(uint64(k) * uint64(hi) >> 32); !p.startsAbove(g, k, s) {
			lo = g + 1
			if lo < hi && p.startsAbove(lo, k, s) {
				hi = lo
			}
		} else {
			hi = g
			if g > 0 && !p.startsAbove(g-1, k, s) {
				lo = g
			}
		}
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); !p.startsAbove(m, k, s) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	j = max(lo-1, 0)
	pg := p.pages[j]
	i = pg.search(k, s)
	return j, i, i < postPageSize && pg.slots[i] == s && pg.keys[i] == k
}

// startsAbove reports whether page j's first entry sorts above (k, s).
func (p *postings[W]) startsAbove(j int, k, s W) bool {
	pg := p.pages[j]
	return below(k, s, pg.keys[0], pg.slots[0])
}

// postCursor walks a run of one key's entries in ascending order, from
// where a seek put it up to the first entry of another key or with a
// slot at or above hi. It reads the index's pages in place, so it is
// used under the lock it was made under and before the index changes.
// pg is page j of the directory; once the run is done, j is past the
// directory and i past the page.
type postCursor[W uint32 | uint64] struct {
	pg    *postPage[W]
	p     *postings[W]
	j, i  int
	k, hi W
}

// run places the cursor at the members of p under k.
func (c *postCursor[W]) run(p *postings[W], k W) { c.seek(p, k, 0, ^W(0)) }

// seek places the cursor at the members of p under k whose slots lie
// in [lo, hi), hi > 0. A cursor is filled in place, never
// returned: copying one out of a call stalls the probe loop on the
// copy.
func (c *postCursor[W]) seek(p *postings[W], k, lo, hi W) {
	c.p, c.k, c.hi = p, k, hi
	if c.j, c.i, _ = p.find(k, lo); len(p.pages) > 0 {
		c.pg = p.pages[c.j]
	} else {
		c.i = postPageSize
	}
}

// next returns the cursor's next member, or false when the run is done.
// Its test reads a free slot's 0 as the largest slot, so one comparison
// stops at the page's end and at hi.
func (c *postCursor[W]) next() (TupleID, bool) {
	if i := c.i; i < postPageSize {
		if s := c.pg.slots[i]; s-1 < c.hi-1 && c.pg.keys[i] == c.k {
			c.i++
			return c.p.base + TupleID(s), true
		}
	}
	return c.turn()
}

// turn moves the cursor on to the next page when the run reached the
// end of page j, and returns the member there; otherwise the run is
// done.
func (c *postCursor[W]) turn() (TupleID, bool) {
	ended := c.i < postPageSize && c.pg.slots[c.i] != 0
	if ended || c.j+1 >= len(c.p.pages) {
		c.j, c.i = len(c.p.pages), postPageSize
		return 0, false
	}
	c.j++
	c.pg, c.i = c.p.pages[c.j], 0
	return c.next()
}

// count returns the number of members under k.
func (p *postings[W]) count(k W) int {
	var c postCursor[W]
	n := 0
	for c.run(p, k); ; n++ {
		if _, ok := c.next(); !ok {
			return n
		}
	}
}

// appendMembers appends the members under k to dst, ascending, and
// returns the extended slice: a copy the caller may keep.
func (p *postings[W]) appendMembers(dst []TupleID, k W) []TupleID {
	var c postCursor[W]
	c.run(p, k)
	for id, ok := c.next(); ok; id, ok = c.next() {
		dst = append(dst, id)
	}
	return dst
}

// holds reports whether the entry at slot i of page j has key k, where
// i = -1 stands for the last entry of page j-1 and a free slot for the
// first of page j+1.
func (p *postings[W]) holds(j, i int, k W) bool {
	switch {
	case len(p.pages) == 0:
		return false
	case i < 0:
		if j == 0 {
			return false
		}
		j--
		i = p.pages[j].len() - 1
	case i >= postPageSize || p.pages[j].slots[i] == 0:
		if j++; j == len(p.pages) {
			return false
		}
		i = 0
	}
	return p.pages[j].keys[i] == k
}

// add makes id a member under k; adding a member again changes nothing.
// An insert into a full page moves its entry at that end over to a
// neighbour with room, the right one first. An entry past the last goes
// on a new page when the last page is full and its left neighbour too.
// Any other insert into a full page whose neighbours are full splits it
// into halves.
func (p *postings[W]) add(k W, id TupleID) {
	s := W(id - p.base)
	j, i, found := p.find(k, s)
	if found {
		return
	}
	if !p.holds(j, i-1, k) && !p.holds(j, i, k) {
		p.keys++
	}
	if len(p.pages) == 0 {
		p.pages = append(p.pages, p.newPage())
	}
	pg := p.pages[j]
	if n := pg.len(); n < postPageSize {
		pg.insert(i, n, k, s)
		return
	}
	if p.spill(j, i, k, s) {
		return
	}
	right := p.newPage()
	if i == postPageSize && j == len(p.pages)-1 {
		right.keys[0], right.slots[0] = k, s
		p.pages = append(p.pages, right)
		return
	}
	const half = postPageSize / 2
	copy(right.keys[:], pg.keys[half:])
	copy(right.slots[:], pg.slots[half:])
	clear(pg.keys[half:])
	clear(pg.slots[half:])
	p.pages = slices.Insert(p.pages, j+1, right)
	if i > half {
		right.insert(i-half, half, k, s)
	} else {
		pg.insert(i, half, k, s)
	}
}

// spill puts the entry (k, s), which belongs at slot i of the full page
// j, in without a new page when a neighbour has room: the page's last
// entry, or the new one when it sorts last, moves to the front of page
// j+1, or else its first moves to the end of page j-1. It reports
// whether it did.
func (p *postings[W]) spill(j, i int, k, s W) bool {
	pg := p.pages[j]
	if j+1 < len(p.pages) {
		r := p.pages[j+1]
		if n := r.len(); n < postPageSize {
			if i < postPageSize {
				lk, ls := pg.keys[postPageSize-1], pg.slots[postPageSize-1]
				pg.insert(i, postPageSize-1, k, s)
				k, s = lk, ls
			}
			r.insert(0, n, k, s)
			return true
		}
	}
	if j > 0 && i > 0 {
		l := p.pages[j-1]
		if n := l.len(); n < postPageSize {
			l.keys[n], l.slots[n] = pg.keys[0], pg.slots[0]
			copy(pg.keys[:i-1], pg.keys[1:i])
			copy(pg.slots[:i-1], pg.slots[1:i])
			pg.keys[i-1], pg.slots[i-1] = k, s
			return true
		}
	}
	return false
}

// remove drops id from the members under k, if it is one. Its page
// leaves the directory when emptied, or merges with a neighbour that it
// now fits in one page with.
func (p *postings[W]) remove(k W, id TupleID) {
	s := W(id - p.base)
	j, i, found := p.find(k, s)
	if !found {
		return
	}
	if !p.holds(j, i-1, k) && !p.holds(j, i+1, k) {
		p.keys--
	}
	pg := p.pages[j]
	n := pg.len()
	if n == 1 {
		p.pages = slices.Delete(p.pages, j, j+1)
		p.freePage(pg)
		return
	}
	copy(pg.keys[i:n-1], pg.keys[i+1:n])
	copy(pg.slots[i:n-1], pg.slots[i+1:n])
	pg.keys[n-1], pg.slots[n-1] = 0, 0
	if !p.mergeNext(j - 1) {
		p.mergeNext(j)
	}
}

// mergeNext moves the entries of page j+1 to the end of page j and
// drops page j+1 from the directory when the two fit in one page, and
// reports whether it did.
func (p *postings[W]) mergeNext(j int) bool {
	if j < 0 || j+1 >= len(p.pages) {
		return false
	}
	a, b := p.pages[j], p.pages[j+1]
	na, nb := a.len(), b.len()
	if na+nb > postPageSize {
		return false
	}
	copy(a.keys[na:], b.keys[:nb])
	copy(a.slots[na:], b.slots[:nb])
	p.pages = slices.Delete(p.pages, j+1, j+2)
	p.freePage(b)
	return true
}

// freePage keeps a page that left the directory, cleared, on the free
// list within its bound (maxFreeLogs pages), so that a key whose page
// splits, merges and splits again, as an aborted write and its retry
// make it, does not allocate a page each time.
func (p *postings[W]) freePage(pg *postPage[W]) {
	if p.free != nil && len(*p.free) < maxFreeLogs {
		*pg = postPage[W]{}
		*p.free = append(*p.free, pg)
	}
}

// newPage returns an empty page, from the free list when it holds one.
func (p *postings[W]) newPage() *postPage[W] {
	if p.free != nil {
		if pg, ok := pop(p.free); ok {
			return pg
		}
	}
	return new(postPage[W])
}

// checkLayout reports the first breach of the layout: an empty page,
// entries out of strictly ascending order within a page or across
// pages, a used slot past a free one, a free slot among the entries or
// with a key, two neighbouring pages that fit in one, or a distinct-key
// count that is off.
func (p *postings[W]) checkLayout() error {
	keys, first := 0, true
	var lk, ls W
	for j, pg := range p.pages {
		n := pg.len()
		if n == 0 {
			return fmt.Errorf("index page %d is empty", j)
		}
		if j > 0 && p.pages[j-1].len()+n <= postPageSize {
			return fmt.Errorf("index pages %d and %d hold %d entries, which fit in one page", j-1, j, p.pages[j-1].len()+n)
		}
		for i := range postPageSize {
			k, s := pg.keys[i], pg.slots[i]
			if i >= n {
				if k != 0 || s != 0 {
					return fmt.Errorf("index page %d holds %d entries and slot %d in use", j, n, i)
				}
				continue
			}
			if s == 0 {
				return fmt.Errorf("index page %d holds %d entries and slot %d free", j, n, i)
			}
			if !first && !below(lk, ls, k, s) {
				return fmt.Errorf("entry (%d, %d) at index page %d slot %d follows (%d, %d)", k, s, j, i, lk, ls)
			}
			if first || k != lk {
				keys++
			}
			first, lk, ls = false, k, s
		}
	}
	if keys != p.keys {
		return fmt.Errorf("%d distinct keys counted as %d", keys, p.keys)
	}
	return nil
}
