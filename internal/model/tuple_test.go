package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func tupleOf(rel string, vals ...Value) Tuple { return NewTuple(rel, vals...) }

func TestTupleBasics(t *testing.T) {
	tp := tupleOf("R", Const("a"), Null(1), Const("a"))
	if tp.Arity() != 3 {
		t.Fatalf("Arity = %d", tp.Arity())
	}
	if got := tp.String(); got != "R(a, x1, a)" {
		t.Fatalf("String = %q", got)
	}
	if tp.IsGround() {
		t.Fatal("tuple with null reported ground")
	}
	if !tupleOf("R", Const("a")).IsGround() {
		t.Fatal("ground tuple not reported ground")
	}
	if !tp.HasNull(Null(1)) || tp.HasNull(Null(2)) {
		t.Fatal("HasNull wrong")
	}
	nulls := tp.Nulls()
	if len(nulls) != 1 || nulls[0] != Null(1) {
		t.Fatalf("Nulls = %v", nulls)
	}
}

func TestTupleNullsOrderAndDedup(t *testing.T) {
	tp := tupleOf("R", Null(5), Null(2), Null(5), Null(9))
	got := tp.Nulls()
	want := []Value{Null(5), Null(2), Null(9)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Nulls = %v, want %v", got, want)
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	a := tupleOf("R", Const("x"), Null(1))
	b := a.Clone()
	b.Vals[0] = Const("y")
	if a.Vals[0] != Const("x") {
		t.Fatal("Clone shares storage with original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestTupleKeyUniqueness(t *testing.T) {
	distinct := []Tuple{
		tupleOf("R", Const("a"), Const("b")),
		tupleOf("R", Const("a"), Null(1)),
		tupleOf("R", Null(1), Const("a")),
		tupleOf("S", Const("a"), Const("b")),
		tupleOf("R", Const("a\x00c"), Const("b")),
		tupleOf("R", Const("a"), Const("c"), Const("b")),
		// The separator byte inside a constant or a relation name must
		// not read as a separator: these rendered alike before constants
		// escaped it.
		tupleOf("R", Const("a\x00cb"), Const("x")),
		tupleOf("R", Const("a"), Const("b\x00cx")),
		tupleOf("R", Const("a\x00"), Const("cb\x00cx")),
		tupleOf("R\x00ca", Const("b\x00cx")),
	}
	seen := make(map[string]Tuple)
	for _, tp := range distinct {
		k := tp.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, tp)
		}
		seen[k] = tp
	}
	if tupleOf("R", Const("a")).Key() != tupleOf("R", Const("a")).Key() {
		t.Fatal("equal tuples must share a key")
	}
}

// TestTupleAppendKeyMatchesKey: AppendKey writes Key's bytes, for
// random tuples mixing nulls, empty constants and constants and
// relation names holding the separator byte, after whatever dst holds.
func TestTupleAppendKeyMatchesKey(t *testing.T) {
	parts := []string{"", "a", "\x00", "\x00\x00", "a\x00", "\x00b", "a\x00\x00b", "ab"}
	r := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 2000; i++ {
		vals := make([]Value, r.Intn(5))
		for j := range vals {
			switch r.Intn(3) {
			case 0:
				vals[j] = Null(r.Int63n(1 << 40))
			default:
				vals[j] = Const(parts[r.Intn(len(parts))] + parts[r.Intn(len(parts))])
			}
		}
		tp := tupleOf(parts[r.Intn(len(parts))]+"R", vals...)
		if got := string(tp.AppendKey(nil)); got != tp.Key() {
			t.Fatalf("AppendKey(nil) of %q = %q, Key = %q", tp, got, tp.Key())
		}
		prefix := len(buf)
		buf = tp.AppendKey(buf)
		if string(buf[prefix:]) != tp.Key() {
			t.Fatalf("AppendKey after %d bytes of %q = %q, Key = %q", prefix, tp, buf[prefix:], tp.Key())
		}
	}
}

func TestMoreSpecificExamplesFromPaper(t *testing.T) {
	// From §2.2: C(NYC) is more specific than C(x4).
	nyc := tupleOf("C", Const("NYC"))
	cx4 := tupleOf("C", Null(4))
	if !MoreSpecific(nyc, cx4) {
		t.Fatal("C(NYC) must be more specific than C(x4)")
	}
	if MoreSpecific(cx4, nyc) {
		t.Fatal("C(x4) must not be more specific than C(NYC)")
	}
	if !StrictlyMoreSpecific(nyc, cx4) {
		t.Fatal("C(NYC) must be strictly more specific than C(x4)")
	}
}

func TestMoreSpecificFunctionality(t *testing.T) {
	// The positionwise map must be a function: x1 cannot map to both
	// a and b.
	u := tupleOf("R", Null(1), Null(1))
	if MoreSpecific(tupleOf("R", Const("a"), Const("b")), u) {
		t.Fatal("map {x1->a, x1->b} is not a function")
	}
	if !MoreSpecific(tupleOf("R", Const("a"), Const("a")), u) {
		t.Fatal("map {x1->a} is a function")
	}
	// Null-to-null renaming is allowed.
	if !MoreSpecific(tupleOf("R", Null(7), Null(7)), u) {
		t.Fatal("renaming x1->x7 must qualify")
	}
	// Two distinct nulls may map to the same value (f need not be
	// injective).
	v := tupleOf("R", Null(1), Null(2))
	if !MoreSpecific(tupleOf("R", Const("a"), Const("a")), v) {
		t.Fatal("non-injective f must qualify")
	}
}

func TestMoreSpecificConstIdentity(t *testing.T) {
	u := tupleOf("R", Const("a"), Null(1))
	if MoreSpecific(tupleOf("R", Const("b"), Const("c")), u) {
		t.Fatal("f must be the identity on constants")
	}
	if !MoreSpecific(tupleOf("R", Const("a"), Const("c")), u) {
		t.Fatal("matching constant must qualify")
	}
	// A null is never more specific than a constant position.
	if MoreSpecific(tupleOf("R", Null(9), Const("c")), u) {
		t.Fatal("null at constant position must not qualify")
	}
}

func TestMoreSpecificIncomparable(t *testing.T) {
	if MoreSpecific(tupleOf("R", Const("a")), tupleOf("S", Const("a"))) {
		t.Fatal("different relations are incomparable")
	}
	if MoreSpecificVals([]Value{Const("a")}, []Value{Const("a"), Const("b")}) {
		t.Fatal("different arities are incomparable")
	}
}

func randVals(r *rand.Rand, n int) []Value {
	vals := make([]Value, n)
	for i := range vals {
		if r.Intn(2) == 0 {
			vals[i] = Const(string(rune('a' + r.Intn(4))))
		} else {
			vals[i] = Null(int64(r.Intn(4) + 1))
		}
	}
	return vals
}

// moreSpecificValsReference is Definition 2.4 read literally: build the
// positionwise map u[i] -> t[i] and require it to be a function that is
// the identity on constants. MoreSpecificVals must agree with it.
func moreSpecificValsReference(t, u []Value) bool {
	if len(t) != len(u) {
		return false
	}
	f := make(map[Value]Value, len(u))
	for i := range u {
		if u[i].IsConst() {
			if t[i] != u[i] {
				return false
			}
			continue
		}
		if prev, ok := f[u[i]]; ok && prev != t[i] {
			return false
		}
		f[u[i]] = t[i]
	}
	return true
}

func TestMoreSpecificValsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	agree := 0
	for i := 0; i < 50000; i++ {
		k := r.Intn(7)
		a, b := randVals(r, k), randVals(r, k)
		if r.Intn(4) == 0 {
			b = randVals(r, r.Intn(7)) // arities may differ
		}
		got, want := MoreSpecificVals(a, b), moreSpecificValsReference(a, b)
		if got != want {
			t.Fatalf("MoreSpecificVals(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if want {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no positive case generated")
	}
}

// The check runs once per candidate tuple while the chase plans a
// step, so it must not allocate, repeated nulls in the pattern included.
func TestMoreSpecificValsAllocFree(t *testing.T) {
	u := []Value{Null(1), Const("a"), Null(2), Null(1), Null(3), Null(2)}
	v := []Value{Const("p"), Const("a"), Null(9), Const("p"), Const("q"), Null(9)}
	if !MoreSpecificVals(v, u) {
		t.Fatal("fixture must be a positive case")
	}
	if n := testing.AllocsPerRun(1000, func() { MoreSpecificVals(v, u) }); n != 0 {
		t.Fatalf("MoreSpecificVals allocates %.0f times per call, want 0", n)
	}
}

// Property: specificity is reflexive.
func TestMoreSpecificReflexiveQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		vals := randVals(r, int(n%6)+1)
		return MoreSpecificVals(vals, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: specificity is transitive.
func TestMoreSpecificTransitiveQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%4) + 1
		a, b, c := randVals(r, k), randVals(r, k), randVals(r, k)
		if MoreSpecificVals(a, b) && MoreSpecificVals(b, c) {
			return MoreSpecificVals(a, c)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: grounding a tuple by substituting constants for its nulls
// always yields a more specific tuple.
func TestGroundingMoreSpecificQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		vals := randVals(r, int(n%6)+1)
		s := make(Subst)
		for _, v := range vals {
			if v.IsNull() {
				s[v] = Const(string(rune('p' + r.Intn(4))))
			}
		}
		return MoreSpecificVals(s.Apply(vals), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubstApply(t *testing.T) {
	s := Subst{Null(1): Const("a"), Null(2): Null(3)}
	in := []Value{Null(1), Const("k"), Null(2), Null(4)}
	got := s.Apply(in)
	want := []Value{Const("a"), Const("k"), Null(3), Null(4)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apply = %v, want %v", got, want)
	}
	// Original must be untouched.
	if in[0] != Null(1) {
		t.Fatal("Apply mutated its input")
	}
	// No-op substitutions return the input slice unchanged.
	same := []Value{Const("k"), Null(9)}
	if out := s.Apply(same); &out[0] != &same[0] {
		t.Fatal("no-op Apply should return the original slice")
	}
}

func TestSubstTouches(t *testing.T) {
	s := Subst{Null(1): Const("a")}
	if !s.Touches([]Value{Null(1)}) {
		t.Fatal("Touches missed a mapped null")
	}
	if s.Touches([]Value{Null(2), Const("a")}) {
		t.Fatal("Touches false positive")
	}
}

func TestSubstCompose(t *testing.T) {
	s := Subst{Null(1): Null(2)}
	u := Subst{Null(2): Const("a")}
	c := s.Compose(u)
	if c[Null(1)] != Const("a") {
		t.Fatalf("compose: x1 -> %v, want a", c[Null(1)])
	}
	if c[Null(2)] != Const("a") {
		t.Fatalf("compose: x2 -> %v, want a", c[Null(2)])
	}
}

// Property: Compose agrees with sequential application.
func TestSubstComposeQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Subst {
			s := make(Subst)
			for i := 0; i < r.Intn(4); i++ {
				from := Null(int64(r.Intn(5) + 1))
				var to Value
				if r.Intn(2) == 0 {
					to = Const(string(rune('a' + r.Intn(3))))
				} else {
					to = Null(int64(r.Intn(5) + 1))
				}
				if from != to {
					s[from] = to
				}
			}
			return s
		}
		s, u := mk(), mk()
		vals := randVals(r, int(n%5)+1)
		seq := u.Apply(s.Apply(vals))
		composed := s.Compose(u).Apply(vals)
		return reflect.DeepEqual(seq, composed)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{Null(2): Const("b"), Null(1): Const("a")}
	if got := s.String(); got != "{x1->a, x2->b}" {
		t.Fatalf("String = %q", got)
	}
}

func TestUnifier(t *testing.T) {
	frontier := tupleOf("S", Null(3), Null(4), Const("NYC"))
	target := tupleOf("S", Const("JFK"), Const("NYC"), Const("NYC"))
	s, ok := Unifier(frontier, target)
	if !ok {
		t.Fatal("unifier must exist")
	}
	if got := s.ApplyTuple(frontier); !got.Equal(target) {
		t.Fatalf("unified = %s, want %s", got, target)
	}
	// Not more specific: no unifier.
	if _, ok := Unifier(frontier, tupleOf("S", Const("JFK"), Const("NYC"), Const("LGA"))); ok {
		t.Fatal("unifier must not exist when target is not more specific")
	}
}

func TestUnifierNullTargets(t *testing.T) {
	frontier := tupleOf("C", Null(4))
	target := tupleOf("C", Null(9))
	s, ok := Unifier(frontier, target)
	if !ok {
		t.Fatal("null-to-null unifier must exist")
	}
	if s[Null(4)] != Null(9) {
		t.Fatalf("unifier = %v", s)
	}
	// Unifying a tuple with itself must be a no-op substitution.
	s2, ok := Unifier(frontier, frontier)
	if !ok || len(s2) != 0 {
		t.Fatalf("self-unifier should be empty, got %v", s2)
	}
}

// Property: whenever target is more specific than t, the unifier maps
// t exactly onto target.
func TestUnifierQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%5) + 1
		tv, uv := randVals(r, k), randVals(r, k)
		a, b := NewTuple("R", tv...), NewTuple("R", uv...)
		s, ok := Unifier(a, b)
		if MoreSpecific(b, a) != ok {
			return false
		}
		if !ok {
			return true
		}
		return s.ApplyTuple(a).Equal(b)
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
