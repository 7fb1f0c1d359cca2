package chase

import (
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// TestViolationProcessingOrderIsContentCanonical regresses the
// schedule-order leak behind the duplicate-heavy serializability
// flake: violation discovery enumerates join candidates in tuple-ID
// order, and IDs are minted in execution order, so two stores holding
// the same facts loaded in different orders used to repair the same
// violations in different orders — which reached users as different
// decision ordinals and contexts, and let a concurrent run converge to
// a different final instance than the serial reference. Processing is
// now ordered by the canonical witness signature, a function of
// content only: the repair traces of the two stores must be identical.
func TestViolationProcessingOrderIsContentCanonical(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("S", "x")
	schema.MustAddRelation("T", "x", "y")
	schema.MustAddRelation("U", "y")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("x")), tgd.NewAtom("T", tgd.V("x"), tgd.V("y"))},
		[]tgd.Atom{tgd.NewAtom("U", tgd.V("y"))})
	if err := m.Validate(schema); err != nil {
		t.Fatal(err)
	}
	set := tgd.MustNewSet(m)

	run := func(loadOrder []string) []string {
		st := storage.NewStore(schema)
		for _, y := range loadOrder {
			if _, err := st.Load(model.NewTuple("T", model.Const("a"), model.Const(y))); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine(st, set)
		u := NewUpdate(1, Insert(model.NewTuple("S", model.Const("a"))))
		for i := 0; i < 100; i++ {
			res, err := e.Step(u)
			if err != nil {
				t.Fatal(err)
			}
			if res.State == StateTerminated {
				break
			}
			if res.State == StateAwaitingUser {
				t.Fatal("unexpected frontier in a deterministic repair")
			}
		}
		var lines []string
		for _, entry := range u.Trace {
			lines = append(lines, entry.Write.String())
		}
		return lines
	}

	// The same facts, loaded in opposite orders: tuple IDs swap, the
	// content does not.
	a := run([]string{"p", "q"})
	b := run([]string{"q", "p"})
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		// Sequence numbers differ only if the write ORDER differed;
		// compare verbatim.
		if a[i] != b[i] {
			t.Fatalf("repair order depends on tuple-ID order at step %d:\n a: %v\n b: %v", i, a, b)
		}
	}
}

// TestWitnessSigInvariantUnderIDsAndNullNames pins the signature
// primitive itself: stores whose corresponding tuples differ in
// physical IDs and null labels assign equal signatures, and distinct
// contents assign distinct, content-ordered signatures.
func TestWitnessSigInvariantUnderIDsAndNullNames(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("S", "x")
	schema.MustAddRelation("T", "x", "y")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("x")), tgd.NewAtom("T", tgd.V("x"), tgd.V("y"))},
		[]tgd.Atom{tgd.NewAtom("S", tgd.V("y"))})
	if err := m.Validate(schema); err != nil {
		t.Fatal(err)
	}
	set := tgd.MustNewSet(m)

	sigsOf := func(pad int, nullBase int64) map[string]bool {
		st := storage.NewStore(schema)
		// Pad the stripe so tuple IDs differ between the two stores.
		for i := 0; i < pad; i++ {
			if _, err := st.Load(model.NewTuple("S", model.Const("pad"))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Load(model.NewTuple("T", model.Const("a"), model.Null(nullBase))); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(model.NewTuple("T", model.Const("a"), model.Const("k"))); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(st, set)
		u := NewUpdate(1, Insert(model.NewTuple("S", model.Const("a"))))
		if _, err := e.Step(u); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, qv := range u.queue {
			out[string(u.qctx.sig(qv))] = true
		}
		return out
	}

	a := sigsOf(0, 5)
	b := sigsOf(3, 42) // different IDs, different null label
	if len(a) == 0 {
		t.Fatal("no violations enqueued; fixture is broken")
	}
	if len(a) != len(b) {
		t.Fatalf("signature sets differ in size: %v vs %v", a, b)
	}
	for s := range a {
		if !b[s] {
			t.Fatalf("signature %q not invariant under IDs/null names: %v vs %v", s, a, b)
		}
	}
}
