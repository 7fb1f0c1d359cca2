package core

import (
	"errors"
	"fmt"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/tgd"
)

// collideDoc has one mapping whose every repair mints one null: a P
// fact needs a Q fact for its name. Each stored null therefore belongs
// to exactly one Q fact, unless two of them share a name. A G fact
// needs a P fact, so inserting G(x) writes P(x) one step later.
const collideDoc = `
relation G(name)
relation P(name)
relation Q(name, id)
mapping g: G(x) -> P(x)
mapping m: P(x) -> exists y: Q(x, y)
tuple P("a")
tuple Q("a", ?n1)
tuple P("b")
tuple Q("b", ?n2)
`

// nullsOnce asserts that every labeled null of the repository occurs in
// exactly one fact, and that there are want of them.
func nullsOnce(t *testing.T, r *Repository, want int) {
	t.Helper()
	seen := map[model.Value]string{}
	for _, ts := range r.Facts() {
		for _, f := range ts {
			for _, v := range f.Vals {
				if !v.IsNull() {
					continue
				}
				if other, dup := seen[v]; dup {
					t.Fatalf("null %v names two unknowns: in %s and in %s", v, other, f)
				}
				seen[v] = f.String()
			}
		}
	}
	if len(seen) != want {
		t.Fatalf("%d distinct nulls, want %d:\n%s", len(seen), want, r.Dump())
	}
}

func insertP(name string) chase.Op { return chase.Insert(tup("P", c(name))) }

// TestMintedNullsNeverCollide: the nulls chases mint never take the
// name of a parsed null, of a Repository.FreshNull value, of a null a
// second engine on the same store (RunConcurrent) minted, or of one
// kept from an earlier session or loaded from another store, and an
// aborted attempt's rerun mints the names the abort discarded. A repair needing more ordinals than
// the name has room for fails its update with a *model.NullNameError
// and leaves the repository as it was.
func TestMintedNullsNeverCollide(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenWithOptions(collideDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nulls := 2 // ?n1, ?n2

	// A second engine beside the repository's own. Each name's P fact
	// is inserted by two updates: the higher-numbered one inserts it
	// and mints its Q null before the lower-numbered one's chase from
	// G writes the same fact, so it aborts and reruns.
	var ops []chase.Op
	for i := range 6 {
		name := fmt.Sprint("w", i)
		ops = append(ops, chase.Insert(tup("G", c(name))), insertP(name))
	}
	m, err := r.RunConcurrent(ops, cc.Config{Tracker: cc.Naive{}, MaxAbortsPerUpdate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborts == 0 {
		t.Fatal("no attempt aborted: the rerun path went unexercised")
	}
	nulls += len(ops) / 2
	nullsOnce(t, r, nulls)

	// Counter nulls stored through the repository's engine, then its
	// own chases.
	for _, name := range []string{"f1", "f2"} {
		if _, err := r.Apply(chase.Insert(tup("Q", c(name), r.FreshNull())), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"r1", "r2"} {
		if _, err := r.Apply(insertP(name), nil); err != nil {
			t.Fatal(err)
		}
	}
	nulls += 4
	nullsOnce(t, r, nulls)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened repository names past every recovered namespace.
	r, _, err = OpenWithOptions(collideDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"s1", "s2"} {
		if _, err := r.Apply(insertP(name), nil); err != nil {
			t.Fatal(err)
		}
	}
	nulls += 2
	nullsOnce(t, r, nulls)

	// An attempt rolled back and run again mints the same names.
	u := chase.NewUpdate(r.nextUpdate, insertP("t"))
	run := &chase.Runner{Engine: r.engine}
	if _, err := run.Run(u); err != nil {
		t.Fatal(err)
	}
	first := r.store.Dump(u.Number)
	r.store.Abort(u.Number)
	u.Reset()
	if _, err := run.Run(u); err != nil {
		t.Fatal(err)
	}
	if got := r.store.Dump(u.Number); got != first {
		t.Fatalf("the rerun minted other names:\n got:\n%s\nwant:\n%s", got, first)
	}
	if err := r.commitLocked(u.Number); err != nil {
		t.Fatal(err)
	}
	r.nextUpdate++
	nulls++
	nullsOnce(t, r, nulls)

	// Another store's minted nulls, loaded after the repository opened,
	// as a repository built from an earlier run's data is.
	loaded, err := New(r.Schema(), r.Mappings())
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range r.Facts() {
		for _, f := range ts {
			if _, err := loaded.Store().Load(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range 4 {
		if _, err := loaded.Apply(insertP(fmt.Sprint("l", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	nullsOnce(t, loaded, nulls+4)

	// One repair with one existential more than an attempt's ordinals.
	schema := model.NewSchema()
	schema.MustAddRelation("P", "name")
	attrs := []string{"name"}
	terms := []tgd.Term{tgd.V("x")}
	for i := range 1<<14 + 1 {
		attrs = append(attrs, fmt.Sprint("a", i))
		terms = append(terms, tgd.V(fmt.Sprint("y", i)))
	}
	schema.MustAddRelation("W", attrs...)
	set := tgd.MustNewSet(tgd.New("wide",
		[]tgd.Atom{tgd.NewAtom("P", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("W", terms...)}))
	wide, err := New(schema, set)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wide.Apply(insertP("a"), nil)
	var nameErr *model.NullNameError
	if !errors.As(err, &nameErr) || nameErr.Field != "ordinal" || nameErr.Value != 1<<14 {
		t.Fatalf("Apply minting %d nulls returned %v, want the ordinal's *model.NullNameError", 1<<14+1, err)
	}
	if got := wide.Dump(); got != "" {
		t.Fatalf("the failed update left writes behind:\n%s", got)
	}
}
