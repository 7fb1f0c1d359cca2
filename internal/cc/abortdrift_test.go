package cc

import (
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// This file is the minimized repro of the pre-existing serializability
// flake (ROADMAP: TestParallelEquivalenceOnDuplicateHeavySeeds,
// ~1-in-150 rounds under -race -count=25; near-deterministic on a
// 1-core host). Root cause: write-side conflict checks evaluate the
// reader's recorded answer against the read-time state plus the
// interference that exists at check time — and a later ABORT can take
// part of that interference back. The removed write may have been
// exactly what made an earlier verdict pass (a deletion masking a
// joint violation, a duplicate masking an insert), and if the aborted
// writer's rerun takes a different path, no subsequent write ever
// re-asks the question: the reader commits over a state its guarded
// answer never saw. Store.Abort also advances no stripe sequence, so
// the parallel scheduler's seq-based revalidation was structurally
// blind to it. The fix makes removals first-class conflict events:
// executeAbortWave re-checks every surviving read prefix against each
// rollback's removed writes (ViolationRead.AffectedByRemoval) and
// aborts readers whose guarded answers drifted.

// driftFixture builds the minimal drift scenario:
//
//	mapping m: A(x) & B(x) -> C(x); committed instance {A(a)}.
//	update 9 reads the seeded violation query (answer: no violation).
//	update 3 deletes A(a)  — check passes: still no violation.
//	update 5 inserts B(a)  — check passes: A(a) is deleted, no join.
//	update 3 aborts        — A(a) is back; A(a) & B(a) now violate m,
//	                         but no write-side check will ever run again.
func driftFixture(t *testing.T) (storage.Backend, *Config, []*Txn, *query.ViolationRead) {
	t.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x")
	schema.MustAddRelation("C", "x")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x")), tgd.NewAtom("B", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("C", tgd.V("x"))})
	if err := m.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	a := model.Const("a")
	if _, err := st.Load(model.NewTuple("A", a)); err != nil {
		t.Fatal(err)
	}

	txns := make([]*Txn, 9)
	for i := range txns {
		u := chase.NewUpdate(i+1, chase.Insert(model.NewTuple("C", a)))
		txns[i] = &Txn{Upd: u, Number: i + 1}
	}
	cfg := &Config{Tracker: Coarse{}}

	// Update 9 performs the seeded violation read: A(a) present, B(a)
	// absent — no violation to repair.
	q, vs := query.NewViolationRead(query.NewEngine(st.Snap(9)), m, "A", []model.Value{a}, query.SeedLHS)
	if len(vs) != 0 {
		t.Fatalf("fixture expects no initial violation, got %v", vs)
	}
	txns[8].Upd.RecordRead(q)

	// Update 3 deletes A(a); the write-side check honestly passes (a
	// missing A cannot complete the join).
	recs, err := st.DeleteContent(3, model.NewTuple("A", a))
	if err != nil || len(recs) != 1 {
		t.Fatalf("delete A(a): recs=%v err=%v", recs, err)
	}
	var mtr Metrics
	var scratch stepScratch
	if victims := collectDirect(st, cfg, txns, recs, &mtr, &scratch); len(victims) != 0 {
		t.Fatalf("delete of A(a) should pass the write-side check, marked %v", victims)
	}

	// Update 5 inserts B(a); the check again honestly passes — at this
	// moment A(a) is deleted in update 9's reconstruction window.
	_, wB, ins, err := st.Insert(5, model.NewTuple("B", a))
	if err != nil || !ins {
		t.Fatalf("insert B(a): ins=%v err=%v", ins, err)
	}
	if victims := collectDirect(st, cfg, txns, []storage.WriteRec{wB}, &mtr, &scratch); len(victims) != 0 {
		t.Fatalf("insert of B(a) should pass the write-side check, marked %v", victims)
	}
	return st, cfg, txns, q
}

// TestAbortRemovalDriftAbortsStaleReader: aborting update 3 must drag
// update 9 into the wave — its guarded "no violation" answer no longer
// matches its read-time state run forward over the surviving
// interference.
func TestAbortRemovalDriftAbortsStaleReader(t *testing.T) {
	st, cfg, txns, _ := driftFixture(t)
	var m Metrics
	err := executeAbortWave(st, cfg, txns, []*Txn{txns[2]}, &m, new(stepScratch), func(tx *Txn) error {
		return rollbackTxn(st, cfg, tx, &m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.RemovalAbortRequests == 0 {
		t.Fatal("abort-side drift check never fired")
	}
	if txns[2].Aborts() != 1 {
		t.Fatalf("update 3 aborted %d times, want 1", txns[2].Aborts())
	}
	if txns[8].Aborts() != 1 {
		t.Fatalf("update 9 (the stale reader) aborted %d times, want 1", txns[8].Aborts())
	}
	// Sanity: untouched bystanders stay untouched.
	if txns[4].Aborts() != 0 {
		t.Fatalf("update 5 aborted %d times, want 0", txns[4].Aborts())
	}
}

// TestAbortRemovalDriftDetectedByQuery pins the query-level primitive:
// AffectedByRemoval is false while the interference still cancels out,
// true once the removal exposes the drift, and false for irrelevant
// removals.
func TestAbortRemovalDriftDetectedByQuery(t *testing.T) {
	st, _, _, q := driftFixture(t)
	removed := st.WritesOf(3)
	if len(removed) != 1 {
		t.Fatalf("update 3 should have one live write, got %v", removed)
	}
	// Before the rollback the store still carries the deletion: the
	// reconstruction has no violation and no drift.
	if q.AffectedByRemoval(new(query.Checker), st, removed) {
		t.Fatal("drift reported while the deletion is still in place")
	}
	st.Abort(3)
	if !q.AffectedByRemoval(new(query.Checker), st, removed) {
		t.Fatal("drift not reported after the deletion was rolled back")
	}
	// A removal that cannot touch the mapping is filtered structurally.
	irrelevant := []storage.WriteRec{{Writer: 3, Rel: "nope", Op: storage.OpInsert}}
	if q.AffectedByRemoval(new(query.Checker), st, irrelevant) {
		t.Fatal("irrelevant removal reported as drift")
	}
}
