package model

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// The string forms of the canonical renderings, built part by part
// with maps and joins: the reference FuzzCanonAppend holds the append
// forms to.

// CanonVals renders vals with nulls renamed to ?0, ?1, ... in order of
// first occurrence, extending the supplied renaming map (which may be
// nil for a self-contained rendering).
func CanonVals(vals []Value, ren map[Value]int) string {
	local := ren
	if local == nil {
		local = make(map[Value]int)
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v.IsConst() {
			parts[i] = "c:" + escapeCanonSep(v.ConstValue())
			continue
		}
		idx, ok := local[v]
		if !ok {
			idx = len(local)
			local[v] = idx
		}
		parts[i] = "?" + strconv.Itoa(idx)
	}
	return strings.Join(parts, "\x01")
}

// CanonTuple renders a tuple canonically (self-contained renaming).
func CanonTuple(t Tuple) string {
	return t.Rel + "\x02" + CanonVals(t.Vals, nil)
}

// CanonTuples renders a set of tuples canonically and
// order-insensitively. The tuples are first rendered with
// self-contained renamings, sorted, and then re-rendered with a shared
// renaming in sorted order, which makes the result stable under both
// permutation of the set and renaming of nulls shared across tuples.
func CanonTuples(ts []Tuple) string {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	solo := make([]string, len(ts))
	for i, t := range ts {
		solo[i] = CanonTuple(t)
	}
	sort.Slice(idx, func(a, b int) bool { return solo[idx[a]] < solo[idx[b]] })
	ren := make(map[Value]int)
	parts := make([]string, len(ts))
	for i, j := range idx {
		parts[i] = ts[j].Rel + "\x02" + CanonVals(ts[j].Vals, ren)
	}
	return strings.Join(parts, "\x03")
}

// escapeCanonSep doubles the canonical separators inside a constant.
// A constant without them is returned as it is.
func escapeCanonSep(s string) string {
	if !strings.ContainsAny(s, "\x01\x02\x03") {
		return s
	}
	return string(appendCanonConst(nil, s))
}

func TestCanonTupleRenamingInvariance(t *testing.T) {
	a := NewTuple("R", Null(1), Const("k"), Null(1), Null(2))
	b := NewTuple("R", Null(77), Const("k"), Null(77), Null(3))
	if CanonTuple(a) != CanonTuple(b) {
		t.Fatalf("canon differs:\n%q\n%q", CanonTuple(a), CanonTuple(b))
	}
	c := NewTuple("R", Null(1), Const("k"), Null(2), Null(2))
	if CanonTuple(a) == CanonTuple(c) {
		t.Fatal("structurally different tuples must canonicalize differently")
	}
}

func TestCanonTupleDistinguishesConstsFromNulls(t *testing.T) {
	a := NewTuple("R", Null(1))
	b := NewTuple("R", Const("?0"))
	if CanonTuple(a) == CanonTuple(b) {
		t.Fatal("null and constant \"?0\" must not collide")
	}
}

func TestCanonTuplesOrderInsensitive(t *testing.T) {
	x, y := NewTuple("R", Const("a"), Null(1)), NewTuple("S", Null(1), Null(2))
	fwd := CanonTuples([]Tuple{x, y})
	rev := CanonTuples([]Tuple{y, x})
	if fwd != rev {
		t.Fatalf("order sensitivity:\n%q\n%q", fwd, rev)
	}
}

func TestCanonTuplesSharedNulls(t *testing.T) {
	// The shared-null structure must be captured: {R(x1), S(x1)} differs
	// from {R(x1), S(x2)}.
	shared := CanonTuples([]Tuple{NewTuple("R", Null(1)), NewTuple("S", Null(1))})
	split := CanonTuples([]Tuple{NewTuple("R", Null(1)), NewTuple("S", Null(2))})
	if shared == split {
		t.Fatal("shared-null structure lost in canonical form")
	}
}

// Property: CanonTuples is invariant under any bijective renaming of
// nulls applied across the whole set.
func TestCanonTuplesRenamingQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5) + 1
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = NewTuple("R", randVals(r, r.Intn(4)+1)...)
		}
		// Build a random bijection on null ids 1..4 -> 101..104 shuffled.
		perm := r.Perm(4)
		ren := make(Subst)
		for i := 0; i < 4; i++ {
			ren[Null(int64(i+1))] = Null(int64(101 + perm[i]))
		}
		renamed := make([]Tuple, n)
		for i, tp := range ts {
			renamed[i] = ren.ApplyTuple(tp)
		}
		return CanonTuples(ts) == CanonTuples(renamed)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCanonHashDeterministic(t *testing.T) {
	a := CanonHash("hello")
	b := CanonHash("hello")
	if a != b {
		t.Fatal("CanonHash not deterministic")
	}
	if CanonHash("hello") == CanonHash("world") {
		t.Fatal("suspicious hash collision on test inputs")
	}
}

// TestCanonSeparatorsInConstantsAreEscaped regresses ambiguous
// renderings: constants holding a separator byte used to render like
// differently split tuples or sets. Constants without one render as
// before.
func TestCanonSeparatorsInConstantsAreEscaped(t *testing.T) {
	a := NewTuple("R", Const("a\x01c:b"), Const("x"))
	b := NewTuple("R", Const("a"), Const("b\x01c:x"))
	if CanonTuple(a) == CanonTuple(b) {
		t.Fatalf("%v and %v both render %q", a, b, CanonTuple(a))
	}
	if got := string(AppendCanonTuple(nil, a)); got != CanonTuple(a) {
		t.Fatalf("append form %q, string form %q", got, CanonTuple(a))
	}
	one := []Tuple{NewTuple("R", Const("a\x03R\x02c:b"))}
	two := []Tuple{NewTuple("R", Const("a")), NewTuple("R", Const("b"))}
	if CanonTuples(one) == CanonTuples(two) {
		t.Fatalf("%v and %v both render %q", one, two, CanonTuples(one))
	}
	if got, want := CanonTuple(NewTuple("R", Const("a\x02"), Null(4))), "R\x02c:a\x02\x02\x01?0"; got != want {
		t.Fatalf("escaped rendering %q, want %q", got, want)
	}
	plain := NewTuple("R", Null(7), Const("k"), Null(7), Null(2))
	if got, want := CanonTuple(plain), "R\x02?0\x01c:k\x01?0\x01?1"; got != want {
		t.Fatalf("plain rendering %q, want %q", got, want)
	}
}

// canonFuzzRels are the fuzzed relations and their arities.
var canonFuzzRels = []struct {
	name  string
	arity int
}{{"R", 2}, {"S", 1}, {"T", 3}}

// canonFuzzConsts are the fuzzed constants, separators included.
var canonFuzzConsts = []string{"a", "b", "", "a\x01c:b", "x\x02", "\x03", "?0", "c:"}

// decodeCanonFuzz turns fuzz input into up to 40 tuples over three
// relations drawing on six nulls, so that tuples share nulls and many
// renderings tie.
func decodeCanonFuzz(data []byte) []Tuple {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ts := make([]Tuple, next()%41)
	for i := range ts {
		rel := canonFuzzRels[next()%len(canonFuzzRels)]
		vals := make([]Value, rel.arity)
		for j := range vals {
			if b := next(); b&1 == 1 {
				vals[j] = Null(int64(b>>1) % 6)
			} else {
				vals[j] = Const(canonFuzzConsts[(b>>1)%len(canonFuzzConsts)])
			}
		}
		ts[i] = Tuple{Rel: rel.name, Vals: vals}
	}
	return ts
}

// FuzzCanonAppend checks the append forms against the string forms
// above:
// AppendCanonTuple against CanonTuple for every tuple, and
// AppendCanonTuples, on one scratch reused across calls, against
// CanonTuples for the whole set and for its first half. Sets beyond
// twelve tuples pass pdqsort's insertion-sort cutoff, where the order
// of tied renderings, and with it the shared renaming, depends on the
// sorting algorithm itself.
//
// Run with: go test -fuzz FuzzCanonAppend ./internal/model
func FuzzCanonAppend(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 1, 3, 5, 2, 1, 7, 9, 11})
	tied := []byte{40}
	for i := 0; i < 40; i++ {
		// Forty R(null, null) tuples over six nulls: every rendering is
		// "R\x02?0\x01?1" or "R\x02?0\x01?0".
		tied = append(tied, 0, byte(2*(i%6)+1), byte(2*((i*5+1)%6)+1))
	}
	f.Add(tied)
	mixed := []byte{40}
	for i := 0; i < 40; i++ {
		mixed = append(mixed, byte(i), byte(i*7), byte(i*3+1), byte(i*11))
	}
	f.Add(mixed)
	var s CanonScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := decodeCanonFuzz(data)
		for _, tp := range ts {
			if got, want := string(AppendCanonTuple([]byte("p"), tp)), "p"+CanonTuple(tp); got != want {
				t.Fatalf("AppendCanonTuple(%v) = %q, want %q", tp, got, want)
			}
		}
		for _, set := range [][]Tuple{ts, ts[:len(ts)/2], ts} {
			if got, want := string(AppendCanonTuples([]byte("p"), set, &s)), "p"+CanonTuples(set); got != want {
				t.Fatalf("AppendCanonTuples(%v) =\n%q, want\n%q", set, got, want)
			}
		}
	})
}
