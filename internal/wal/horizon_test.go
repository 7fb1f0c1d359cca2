package wal

import (
	"testing"

	"youtopia/internal/storage"
)

// churn commits, one writer per batch from first on, inserts, a null
// replacement and deletes — history that trimming drops and replay
// must not bring back — and returns the next free writer number.
func churn(t *testing.T, st *storage.Store, first int) int {
	t.Helper()
	w := first
	x := st.FreshNull()
	var ids []storage.TupleID
	for _, city := range []string{"Ithaca", "Dryden", "Lansing", "Ulysses"} {
		ids = append(ids, mustInsert(t, st, w, tup("C", c(city))))
		mustInsert(t, st, w, tup("S", c(city[:3]), x, c(city)))
		mustCommitBatch(t, st, w)
		w++
	}
	if _, err := st.ReplaceNull(w, x, c("NY")); err != nil {
		t.Fatal(err)
	}
	mustCommitBatch(t, st, w)
	w++
	for _, id := range ids[1:3] {
		if _, ok, err := st.Delete(w, id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	mustCommitBatch(t, st, w)
	return w + 1
}

// TestRecoveryKeepsOneVersionPerTuple: recovery replays every record
// as writer 0 with no reader live, so the recovered store holds one
// version per tuple and no tombstone — from the log alone and from a
// checkpoint plus the tail behind it — and renders byte-identically
// to the store that was closed.
func TestRecoveryKeepsOneVersionPerTuple(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		dir := t.TempDir()
		schema := testSchema()
		m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		next := churn(t, st, 1)
		if ckpt {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		churn(t, st, next)
		want := st.Dump(allSeeing)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		st2, _, err := Recover(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if got := st2.Dump(allSeeing); got != want {
			t.Fatalf("checkpoint=%v: recovered instance differs:\n got:\n%s\nwant:\n%s", ckpt, got, want)
		}
		if s := st2.Stats(); s.Versions != s.Tuples || s.Tuples != s.Visible {
			t.Fatalf("checkpoint=%v: recovered store keeps history: %+v", ckpt, s)
		}
		if err := st2.AuditIndexes(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeletedTupleIDNeverReminted: a deleted tuple leaves the store and
// the checkpoint, yet its ID stays spent across checkpoint and reopen —
// the checkpoint's ID floors keep the relation's counter above it — so
// a delete by that ID, parked before the reopen, cannot hit a tuple
// inserted after it.
func TestDeletedTupleIDNeverReminted(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("Ithaca")))
	gone := mustInsert(t, st, 1, tup("C", c("Dryden")))
	mustCommitBatch(t, st, 1)
	if _, ok, err := st.Delete(2, gone); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	mustCommitBatch(t, st, 2)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, st2, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s := st2.Stats(); s.Tuples != 1 {
		t.Fatalf("reopened store holds %d tuples, want the survivor only", s.Tuples)
	}
	fresh := mustInsert(t, st2, 1, tup("C", c("Lansing")))
	if fresh <= gone {
		t.Fatalf("reopened store minted ID %d, not above deleted ID %d", fresh, gone)
	}
	mustCommitBatch(t, st2, 1)
	if _, ok, err := st2.Delete(2, gone); err != nil || ok {
		t.Fatalf("delete by the deleted tuple's ID hit something: ok=%v err=%v", ok, err)
	}
}
