package serial

import (
	"testing"

	"youtopia/internal/model"
)

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

// equivalent is Equivalent without its always-nil error.
func equivalent(a, b map[string][]model.Tuple) bool {
	eq, _ := Equivalent(a, b)
	return eq
}

func db(ts ...model.Tuple) map[string][]model.Tuple {
	out := make(map[string][]model.Tuple)
	for _, t := range ts {
		out[t.Rel] = append(out[t.Rel], t)
	}
	return out
}

func TestEquivalentIdentical(t *testing.T) {
	a := db(tup("R", c("x"), n(1)), tup("S", n(1)))
	if !equivalent(a, a) {
		t.Fatal("database must be equivalent to itself")
	}
}

// TestEquivalentIsExact: chases name nulls alike in equivalent
// executions, so a database differs from any renaming of its nulls.
func TestEquivalentIsExact(t *testing.T) {
	a := db(tup("R", c("x"), n(1)), tup("S", n(1)), tup("S", n(2)))
	b := db(tup("R", c("x"), n(9)), tup("S", n(9)), tup("S", n(4)))
	if equivalent(a, b) {
		t.Fatal("a renaming of the nulls x1->x9, x2->x4 must differ")
	}
	if !equivalent(a, db(tup("S", n(2)), tup("S", n(1)), tup("R", c("x"), n(1)))) {
		t.Fatal("fact order must not matter")
	}
}

func TestEquivalentSharedStructureMatters(t *testing.T) {
	// {R(x1,x1)} vs {R(x1,x2)}: per-tuple canonical forms differ.
	a := db(tup("R", n(1), n(1)))
	b := db(tup("R", n(1), n(2)))
	if equivalent(a, b) {
		t.Fatal("repeated null must not match distinct nulls")
	}
	// Cross-tuple sharing: {R(x1), S(x1)} vs {R(x1), S(x2)}.
	a = db(tup("R", n(1)), tup("S", n(1)))
	b = db(tup("R", n(1)), tup("S", n(2)))
	if equivalent(a, b) {
		t.Fatal("cross-tuple null sharing must be respected")
	}
}

func TestEquivalentBijective(t *testing.T) {
	// Two a-nulls cannot map to one b-null: {R(x1), R(x2)} (2 facts) vs
	// {R(x1)} (1 fact) differs in cardinality; test injectivity with
	// equal cardinalities instead.
	a := db(tup("R", n(1), n(2)))
	b := db(tup("R", n(5), n(5)))
	if equivalent(a, b) {
		t.Fatal("distinct nulls must not collapse onto one")
	}
}

func TestEquivalentNullVsConstant(t *testing.T) {
	a := db(tup("R", n(1)))
	b := db(tup("R", c("v")))
	if equivalent(a, b) {
		t.Fatal("null must not match constant")
	}
}

func TestEquivalentDuplicatesAreSets(t *testing.T) {
	// Set semantics: duplicate content counts once.
	a := db(tup("R", c("v")), tup("R", c("v")))
	b := db(tup("R", c("v")))
	if !equivalent(a, b) {
		t.Fatal("duplicate facts must compare as sets")
	}
}

func TestEquivalentDifferentSizes(t *testing.T) {
	a := db(tup("R", c("v")), tup("R", c("w")))
	b := db(tup("R", c("v")))
	if equivalent(a, b) {
		t.Fatal("different fact counts must differ")
	}
}

func TestExplain(t *testing.T) {
	a := db(tup("R", c("v")))
	b := db(tup("R", c("w")))
	out := Explain(a, b)
	if out == "" {
		t.Fatal("empty explanation")
	}
	same := Explain(a, a)
	if same == "" {
		t.Fatal("empty explanation for equal dbs")
	}
}
