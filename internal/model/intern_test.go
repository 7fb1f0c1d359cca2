package model

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// liveSymbols counts the table's entries whose canonical copy is still
// alive.
func liveSymbols() int {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	t := symbols.tab.Load()
	n := 0
	for i := range t.slots {
		if t.slots[i].key.Load() != 0 && t.slots[i].w.Value() != nil {
			n++
		}
	}
	return n
}

// alive reports whether s has a live canonical copy.
func alive(s string) bool {
	h, key := symHash(s)
	p, _ := symbols.tab.Load().lookup(s, h, key)
	return p != nil
}

// collectUntil runs collections until done reports true, at most a
// bounded number of times, and reports whether it did.
func collectUntil(done func() bool) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		if done() {
			return true
		}
	}
	return false
}

func TestInternRoundTrip(t *testing.T) {
	if got := Const("Ithaca").ConstValue(); got != "Ithaca" {
		t.Fatalf("round trip: %q", got)
	}
	if Const("a") == Const("b") {
		t.Fatal("distinct constants compare equal")
	}
	if Const("dup") != Const("dup") {
		t.Fatal("re-interned constant changed identity")
	}
	var zero Value
	if zero != Const("") {
		t.Fatal("zero Value is not Const(\"\")")
	}
	if !zero.IsConst() || zero.ConstValue() != "" {
		t.Fatal("zero Value does not behave as the empty constant")
	}
	if Null(0) == Const("") || !Null(0).IsNull() {
		t.Fatal("Null(0) is indistinguishable from Const(\"\")")
	}
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("Value is %d bytes, want two words", got)
	}
	// The canonical copy is the constant's own: interning a slice of a
	// larger string does not keep the larger string alive.
	src := strings.Repeat("y", 1<<16)
	if v := Const(src[:5]); unsafe.StringData(v.ConstValue()) == unsafe.StringData(src) {
		t.Fatal("a constant shares the bytes of the string it was interned from")
	}
}

// TestSymbolReclamation: constants nothing refers to any more leave
// the table, and the table is rebuilt at a size proportional to what is
// alive instead of growing with every constant ever minted.
func TestSymbolReclamation(t *testing.T) {
	const fresh = 10000
	runtime.GC()
	base := liveSymbols()
	// The fresh constants are 16 bytes or longer: shorter copies come
	// from the tiny allocator, which may keep a dead one alive with a
	// live neighbour in its block (see weak.Pointer).
	name := func(round, i int) string { return fmt.Sprintf("reclaim-round-%d-constant-%d", round, i) }
	hold := func(round int) {
		vals := make([]Value, fresh)
		for i := range vals {
			vals[i] = Const(name(round, i))
		}
		for i := range vals {
			if !alive(name(round, i)) {
				t.Fatalf("round %d: held constant %d has no live copy", round, i)
			}
		}
		runtime.KeepAlive(vals)
	}
	for round := 0; round < 5; round++ {
		hold(round)
		if !collectUntil(func() bool { return liveSymbols() <= base }) {
			t.Fatalf("round %d: %d symbols still live after dropping every fresh constant, baseline %d", round, liveSymbols(), base)
		}
		symbols.mu.Lock()
		size := len(symbols.tab.Load().slots)
		symbols.mu.Unlock()
		if limit := max(4*(base+fresh+1), minSymSlots); size > limit {
			t.Fatalf("round %d: table has %d slots, more than %d", round, size, limit)
		}
	}
}

// TestSymbolTableSettlesAfterCollection: a table sized while many dead
// constants still looked alive shrinks, after the collections that
// clear them, to the size its live entries ask for, without waiting
// for the next rebuild a mint would trigger.
func TestSymbolTableSettlesAfterCollection(t *testing.T) {
	const dropped, kept = 10000, 1000
	mint := func(prefix string, n int) []Value {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Const(fmt.Sprintf("settle-%s-constant-%d", prefix, i))
		}
		return vals
	}
	runtime.KeepAlive(mint("dropped", dropped))
	held := mint("kept", kept) // something minted since the table was sized
	settled := func() bool {
		symbols.mu.Lock()
		size := len(symbols.tab.Load().slots)
		symbols.mu.Unlock()
		return 4*size <= 5*symSlotsFor(liveSymbols())
	}
	if !collectUntil(settled) {
		symbols.mu.Lock()
		size := len(symbols.tab.Load().slots)
		symbols.mu.Unlock()
		t.Fatalf("table keeps %d slots for %d live constants", size, liveSymbols())
	}
	runtime.KeepAlive(held)
}

// TestSymbolIdentityAcrossCollections: while one Value of a constant
// is alive, re-interning its string yields the same Value; once every
// Value is gone the canonical copy is collected, and the string minted
// anew still round-trips.
func TestSymbolIdentityAcrossCollections(t *testing.T) {
	held := Const("identity-held")
	Const("identity-dropped")
	if !collectUntil(func() bool { return !alive("identity-dropped") }) {
		t.Fatal("an unreferenced constant was never collected")
	}
	if again := Const("identity-held"); again != held || again.Hash() != held.Hash() {
		t.Fatal("a live constant changed identity across a collection")
	}
	remint := Const("identity-dropped")
	if remint.ConstValue() != "identity-dropped" || remint.String() != "identity-dropped" {
		t.Fatalf("re-minted constant renders as %q", remint.ConstValue())
	}
	if remint != Const("identity-dropped") || remint == held {
		t.Fatal("re-minted constant is not canonical")
	}
	runtime.KeepAlive(held)
}

// TestInternGrowth pushes the symbol table past several rebuilds with
// every symbol held and verifies each survives with its identity.
func TestInternGrowth(t *testing.T) {
	vals := make([]Value, 3000)
	for i := range vals {
		vals[i] = Const(fmt.Sprintf("growth-key-%d", i))
	}
	for i, v := range vals {
		want := fmt.Sprintf("growth-key-%d", i)
		if v.ConstValue() != want {
			t.Fatalf("symbol %d resolved to %q, want %q", i, v.ConstValue(), want)
		}
		if again := Const(want); again != v {
			t.Fatalf("re-interning %q changed identity", want)
		}
	}
}

// TestInternConcurrent interns overlapping key sets from several
// goroutines while another keeps collecting, so copies die and are
// re-minted while readers look them up (run under -race -count=10):
// every goroutine holding a Value of a string must agree with every
// other on it.
func TestInternConcurrent(t *testing.T) {
	const goroutines, keys, rounds, period = 8, 300, 20, 5
	stop := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	results := make([][]Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				out := make([]Value, keys)
				for i := range out {
					out[i] = Const(fmt.Sprintf("under-gc-%d-%d", r%period, i))
				}
				for i, v := range out {
					key := fmt.Sprintf("under-gc-%d-%d", r%period, i)
					if v.ConstValue() != key || Const(key) != v {
						t.Errorf("goroutine %d: %s resolved to %q or changed identity while held", g, key, v.ConstValue())
						return
					}
				}
				// Each round drops its values and the key set comes back
				// period rounds later, so copies die while other
				// goroutines look them up and are minted again.
				if r == rounds-1 {
					results[g] = out
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-collected
	if t.Failed() {
		return
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < keys; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d holds a different copy of key %d of the last round", g, i)
			}
		}
	}
}

// TestInternHitPathAllocFree pins the hit paths: interning
// an already-known constant and resolving a symbol back to its string
// must not allocate — Const and ConstValue sit under every value-index
// probe and canonical rendering in the system.
func TestInternHitPathAllocFree(t *testing.T) {
	warm := Const("alloc-free-probe")
	if got := testing.AllocsPerRun(200, func() {
		if Const("alloc-free-probe") != warm {
			t.Fatal("identity changed")
		}
	}); got != 0 {
		t.Fatalf("interning a known constant allocates %.1f times per op", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if warm.ConstValue() != "alloc-free-probe" {
			t.Fatal("payload changed")
		}
	}); got != 0 {
		t.Fatalf("resolving a symbol allocates %.1f times per op", got)
	}
}

func BenchmarkInternHit(b *testing.B) {
	Const("bench-hit")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Const("bench-hit")
	}
}
