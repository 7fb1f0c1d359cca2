package model

import (
	"hash/maphash"
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
// goroutine builds a new one from the entries still alive, at two to
// four slots per entry, and publishes it. A reader still probing the
// old table at worst misses and retries under the mutex.
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

// symTable is one generation of the table.
type symTable struct {
	mask  uint64
	slots []symSlot
	used  int // filled slots, live or dead; guarded by symbols.mu
}

// minSymSlots is the smallest table.
const minSymSlots = 256

// maxConstLen is the longest constant a slot key can describe.
const maxConstLen = 1<<40 - 1

var symSeed = maphash.MakeSeed()

var symbols struct {
	mu  sync.Mutex
	tab atomic.Pointer[symTable]
}

func init() {
	symbols.tab.Store(&symTable{mask: minSymSlots - 1, slots: make([]symSlot, minSymSlots)})
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

// lookup returns the live canonical copy of s, or nil and the empty
// slot its probe ended at.
func (t *symTable) lookup(s string, h, key uint64) (*byte, *symSlot) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
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
	return p
}

// rebuilt returns a table holding the entries of t that are still
// alive, at two to four slots per entry. Callers hold symbols.mu.
func (t *symTable) rebuilt() *symTable {
	live := 0
	for i := range t.slots {
		if t.slots[i].key.Load() != 0 && t.slots[i].w.Value() != nil {
			live++
		}
	}
	n := minSymSlots
	for n < 2*(live+1) {
		n *= 2
	}
	nt := &symTable{mask: uint64(n - 1), slots: make([]symSlot, n)}
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
		j := maphash.String(symSeed, unsafe.String(p, key>>24)) & nt.mask
		for nt.slots[j].key.Load() != 0 {
			j = (j + 1) & nt.mask
		}
		nt.slots[j].w = sl.w
		nt.slots[j].key.Store(key)
		nt.used++
	}
	return nt
}
