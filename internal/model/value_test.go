package model

import (
	"errors"
	"sync"
	"testing"
)

func TestValueBasics(t *testing.T) {
	c := Const("Ithaca")
	if !c.IsConst() || c.IsNull() {
		t.Fatalf("Const kind wrong: %#v", c)
	}
	if c.Kind() != KindConst {
		t.Fatalf("Kind() = %v, want KindConst", c.Kind())
	}
	if got := c.ConstValue(); got != "Ithaca" {
		t.Fatalf("ConstValue = %q", got)
	}
	if got := c.String(); got != "Ithaca" {
		t.Fatalf("String = %q", got)
	}

	n := Null(7)
	if !n.IsNull() || n.IsConst() {
		t.Fatalf("Null kind wrong: %#v", n)
	}
	if n.Kind() != KindNull {
		t.Fatalf("Kind() = %v, want KindNull", n.Kind())
	}
	if got := n.NullID(); got != 7 {
		t.Fatalf("NullID = %d", got)
	}
	if got := n.String(); got != "x7" {
		t.Fatalf("String = %q", got)
	}
}

func TestValueComparability(t *testing.T) {
	// Values must work as map keys with the expected equalities.
	m := map[Value]int{
		Const("a"): 1,
		Null(1):    2,
	}
	if m[Const("a")] != 1 {
		t.Fatal("constant lookup failed")
	}
	if m[Null(1)] != 2 {
		t.Fatal("null lookup failed")
	}
	if _, ok := m[Const("x1")]; ok {
		t.Fatal("constant \"x1\" must not collide with null x1")
	}
	if Const("x1") == Null(1) {
		t.Fatal("Const(\"x1\") must differ from Null(1)")
	}
}

func TestValuePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("ConstValue on null", func() { Null(1).ConstValue() })
	mustPanic("NullID on const", func() { Const("a").NullID() })
}

func TestValueEncodeCollisionFree(t *testing.T) {
	// The internal encoding must distinguish Null(12) from Const("12")
	// and similar near-collisions.
	pairs := [][2]Value{
		{Null(12), Const("12")},
		{Null(12), Const("n12")},
		{Const("c"), Const("")},
	}
	for _, p := range pairs {
		if string(p[0].appendEncoded(nil)) == string(p[1].appendEncoded(nil)) {
			t.Errorf("encode collision: %#v vs %#v", p[0], p[1])
		}
	}
}

func TestNullFactoryFresh(t *testing.T) {
	var f NullFactory
	a, b := f.Fresh(), f.Fresh()
	if a == b {
		t.Fatalf("Fresh returned duplicate %v", a)
	}
	if a.NullID() >= b.NullID() {
		t.Fatalf("ids not increasing: %v then %v", a, b)
	}
}

func TestNullFactorySetFloor(t *testing.T) {
	var f NullFactory
	f.SetFloor(100)
	if v := f.Fresh(); v.NullID() != 101 {
		t.Fatalf("after SetFloor(100), Fresh = %v, want x101", v)
	}
	// A lower floor must not move the counter backwards.
	f.SetFloor(5)
	if v := f.Fresh(); v.NullID() != 102 {
		t.Fatalf("SetFloor must never decrease: got %v", v)
	}
}

func TestNullFactoryConcurrent(t *testing.T) {
	var f NullFactory
	const workers, per = 8, 200
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int64, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, f.Fresh().NullID())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate null id %d", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("got %d unique ids, want %d", len(seen), workers*per)
	}
}

// TestMintedNullNames: a minted name packs its three fields in order
// above every counter null and below 2^62, renders them, refuses a
// field outside its width with a *NullNameError, and Note raises only
// the counter its null came from.
func TestMintedNullNames(t *testing.T) {
	a, err := MintedNull(3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MintedNull(3, 7, 1)
	c, _ := MintedNull(3, 8, 0)
	d, _ := MintedNull(4, 1, 0)
	top, _ := MintedNull(1<<spaceBits-1, 1<<updateBits-1, 1<<ordinalBits-1)
	if got := b.String(); got != "x3.7.1" {
		t.Fatalf("String = %q, want x3.7.1", got)
	}
	if !(1<<61 <= a.NullID() && a.NullID() < b.NullID() && b.NullID() < c.NullID() && c.NullID() < d.NullID() && top.NullID() < 1<<62) {
		t.Fatalf("names out of order or range: %d %d %d %d %d", a.NullID(), b.NullID(), c.NullID(), d.NullID(), top.NullID())
	}
	for _, bad := range []struct {
		field                  string
		space, update, ordinal int64
	}{
		{"namespace", 1 << spaceBits, 1, 0}, {"namespace", -1, 1, 0},
		{"update", 1, 1 << updateBits, 0}, {"ordinal", 1, 1, 1 << ordinalBits},
	} {
		_, err := MintedNull(bad.space, int(bad.update), int(bad.ordinal))
		var nameErr *NullNameError
		if !errors.As(err, &nameErr) || nameErr.Field != bad.field {
			t.Fatalf("MintedNull(%d, %d, %d) = %v, want a %s *NullNameError", bad.space, bad.update, bad.ordinal, err, bad.field)
		}
	}
	var f NullFactory
	f.Note(d)
	f.Note(Null(41))
	f.Note(Const("x"))
	if space, fresh := f.Reserve(), f.Fresh(); space != 5 || fresh != Null(42) {
		t.Fatalf("after noting x4.1.0 and x41: Reserve = %d, Fresh = %v; want 5, x42", space, fresh)
	}
}
