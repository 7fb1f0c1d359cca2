package model

import (
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
