package model

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// This file is the constant symbol table. A constant Value points at
// the bytes of the one canonical copy of its string, so a Value packs
// into two machine words, equality is a word comparison, and the
// storage layer's index probes hash fixed words instead of an
// arbitrary string.
//
// The table holds the canonical copies weakly: a constant lives exactly
// as long as some Value refers to it. A repository's constant domain is
// what its database and mappings mention, and that changes — tuples are
// deleted, repositories are closed — so a table that kept every
// constant the process ever saw would grow with the history of the data
// rather than with the data. A collected copy leaves a dead slot
// behind, and dead slots go when the table is next rebuilt.
//
// Lookups take no lock and allocate nothing: a table is a fixed array
// of slots, each of which goes from empty to filled exactly once, so a
// reader needs only atomic loads of the current table and of the keys
// it probes. Minting serializes on one mutex. A table is never grown in
// place: when three quarters of its slots are filled, the minting
// goroutine builds a new one from the entries still alive, at two slots
// per entry rounded up to a multiple of minSymSlots, and publishes it. A
// reader still probing the old table at worst misses and retries under
// the mutex.
//
// A live count is only as exact as the last collection: constants that
// died since then still look alive. A table rebuilt while a closed
// repository's constants await collection comes out up to twice too
// big, so its size, and the heap, would depend on the collector's
// timing. The table is therefore also resized after collections: the
// first mint after a settle arms a cleanup (armSymTick) that recounts
// the live entries after the next collection, and rebuilds a table more
// than a quarter larger than its live entries need. Only a mint can
// have sized the table from a stale count, so a process that mints
// nothing does no work, and allocates nothing, per collection. Sizes
// go in steps of minSymSlots rather than powers of two, so that the size
// a live count asks for does not jump twofold at a power of two.
//
// At most one live copy exists per string at any moment: a copy is
// minted only under the mutex, after finding no live one. That is all
// equality needs, since comparing two Values keeps both copies alive.
// A copy that dies and is minted again may land at another address,
// which is why Value.Hash identifies a constant only while the Value
// is alive.

// symSlot is one table entry. key packs the string's length with a tag
// of its hash and is stored after w, so a reader that sees a non-zero
// key sees w too.
type symSlot struct {
	key atomic.Uint64
	w   weak.Pointer[byte] // the canonical copy's first byte
}

// symTable is one generation of the table. Its counter is guarded by
// symbols.mu.
type symTable struct {
	slots []symSlot
	used  int // filled slots, live or dead
}

// minSymSlots is the smallest table and the step its size grows in.
const minSymSlots = 256

// maxConstLen is the longest constant a slot key can describe.
const maxConstLen = 1<<40 - 1

var symSeed = maphash.MakeSeed()

var symbols struct {
	mu  sync.Mutex
	tab atomic.Pointer[symTable]
	// ticking is set from the mint that arms a tick to the settle the
	// tick runs.
	ticking bool
}

func init() {
	symbols.tab.Store(&symTable{slots: make([]symSlot, minSymSlots)})
}

// symTick is garbage the moment it is made, so its cleanup runs after
// the next collection. The pointer field keeps it out of the tiny
// allocator, whose objects are not freed one by one.
type symTick struct{ _ *symTick }

// armSymTick has settleSymbols run after the next collection. Callers
// hold symbols.mu.
func armSymTick() {
	symbols.ticking = true
	runtime.AddCleanup(&symTick{}, func(struct{}) { settleSymbols() }, struct{}{})
}

// settleSymbols rebuilds the table when it is more than a quarter
// larger than its live entries need.
func settleSymbols() {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	symbols.ticking = false
	t := symbols.tab.Load()
	if 4*len(t.slots) > 5*symSlotsFor(t.live()) {
		symbols.tab.Store(t.rebuilt())
	}
}

// symHash returns where the probe for a non-empty string starts and the
// key its slot carries: the length in the high 40 bits, the top 24 bits
// of the hash below.
func symHash(s string) (h, key uint64) {
	if len(s) > maxConstLen {
		panic("model: constant longer than 1 TiB")
	}
	h = maphash.String(symSeed, s)
	return h, uint64(len(s))<<24 | h>>40
}

// start returns the slot the probe for hash h starts at: the low 40
// bits of h, which the slot key's tag does not repeat, scaled onto the
// table by a multiply-shift.
func (t *symTable) start(h uint64) int {
	i, _ := bits.Mul64(h<<24, uint64(len(t.slots)))
	return int(i)
}

// lookup returns the live canonical copy of s, or nil and the empty
// slot its probe ended at.
func (t *symTable) lookup(s string, h, key uint64) (*byte, *symSlot) {
	for i := t.start(h); ; i = t.next(i) {
		sl := &t.slots[i]
		switch k := sl.key.Load(); {
		case k == 0:
			return nil, sl
		case k == key:
			if p := sl.w.Value(); p != nil && unsafe.String(p, len(s)) == s {
				return p, nil
			}
		}
	}
}

// intern returns the first byte of the live canonical copy of s,
// minting the copy if none is alive. The empty string has no copy: the
// zero Value is Const("").
func intern(s string) *byte {
	if s == "" {
		return nil
	}
	h, key := symHash(s)
	if p, _ := symbols.tab.Load().lookup(s, h, key); p != nil {
		return p
	}
	return internSlow(s, h, key)
}

// internSlow mints the canonical copy of s under the mutex, unless
// another goroutine did first.
func internSlow(s string, h, key uint64) *byte {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	t := symbols.tab.Load()
	p, free := t.lookup(s, h, key)
	if p != nil {
		return p
	}
	if 4*(t.used+1) > 3*len(t.slots) {
		t = t.rebuilt()
		symbols.tab.Store(t)
		_, free = t.lookup(s, h, key)
	}
	p = unsafe.StringData(strings.Clone(s))
	free.w = weak.Make(p)
	free.key.Store(key)
	t.used++
	if !symbols.ticking {
		armSymTick()
	}
	return p
}

// next returns the slot a probe visits after slot i.
func (t *symTable) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// live counts the entries of t whose copy is still alive.
func (t *symTable) live() int {
	live := 0
	for i := range t.slots {
		if t.slots[i].key.Load() != 0 && t.slots[i].w.Value() != nil {
			live++
		}
	}
	return live
}

// symSlotsFor returns the table size for live entries: two slots per
// entry, rounded up to a multiple of minSymSlots.
func symSlotsFor(live int) int {
	return (2*(live+1) + minSymSlots - 1) / minSymSlots * minSymSlots
}

// rebuilt returns a table of symSlotsFor(live) slots holding the
// entries of t that are still alive. Callers hold symbols.mu.
func (t *symTable) rebuilt() *symTable {
	nt := &symTable{slots: make([]symSlot, symSlotsFor(t.live()))}
	for i := range t.slots {
		sl := &t.slots[i]
		key := sl.key.Load()
		if key == 0 {
			continue
		}
		p := sl.w.Value()
		if p == nil {
			continue
		}
		j := nt.start(maphash.String(symSeed, unsafe.String(p, key>>24)))
		for nt.slots[j].key.Load() != 0 {
			j = nt.next(j)
		}
		nt.slots[j].w = sl.w
		nt.slots[j].key.Store(key)
		nt.used++
	}
	return nt
}
