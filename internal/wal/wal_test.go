package wal

import (
	"encoding/binary"
	"os"
	"slices"
	"strings"
	"testing"

	"path/filepath"

	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// allSeeing is a reader priority above any update number used in
// tests, so Dump renders the full committed instance.
const allSeeing = 1 << 30

func testSchema() *model.Schema {
	s := model.NewSchema()
	s.MustAddRelation("C", "city")
	s.MustAddRelation("S", "code", "location", "city")
	return s
}

func c(s string) model.Value { return model.Const(s) }
func n(id int64) model.Value { return model.Null(id) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

// mustCommit performs writes for a writer and commits the batch.
func mustInsert(t *testing.T, st *storage.Store, writer int, tp model.Tuple) storage.TupleID {
	t.Helper()
	id, _, _, err := st.Insert(writer, tp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustCommitBatch(t *testing.T, st *storage.Store, writers ...int) {
	t.Helper()
	if err := st.CommitBatch(writers); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Fresh() {
		t.Fatal("fresh directory not reported fresh")
	}

	mustInsert(t, st, 1, tup("C", c("Ithaca")))
	mustInsert(t, st, 1, tup("S", c("SYR"), c("Syracuse"), c("Ithaca")))
	mustCommitBatch(t, st, 1)
	id := mustInsert(t, st, 2, tup("C", c("Boston")))
	mustInsert(t, st, 3, tup("C", n(7)))
	mustCommitBatch(t, st, 2, 3)
	if _, ok, err := st.Delete(4, id); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	mustCommitBatch(t, st, 4)

	want := st.Dump(allSeeing)
	if m.Batches() != 3 {
		t.Fatalf("Batches = %d, want 3", m.Batches())
	}
	if m.Syncs() != 3 {
		t.Fatalf("Syncs = %d, want 3 (one per commit batch)", m.Syncs())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh || info.LastBatch != 3 || info.BatchesReplayed != 3 {
		t.Fatalf("info = %+v", info)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered instance differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := st2.AuditIndexes(); err != nil {
		t.Fatal(err)
	}

	// Recovered stores accept new writers numbered from 1: everything
	// recovered was collapsed onto writer 0.
	if uw := st2.UncommittedWrites(); len(uw) != 0 {
		t.Fatalf("recovered store has live writes: %v", uw)
	}
	nid := mustInsert(t, st2, 1, tup("C", c("Trumansburg")))
	if got := len(st2.WritesOf(1)); got != 1 {
		t.Fatalf("new writer 1 logs %d writes, want 1 (live, not committed)", got)
	}
	if _, ok := st2.EpochSnap().Get(nid); ok {
		t.Fatal("new writer 1's insert is committed before its commit")
	}
	if err := st2.Commit(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.EpochSnap().Get(nid); !ok {
		t.Fatal("new writer 1's insert is not committed after its commit")
	}
}

func TestRecoveredNullsKeepIdentity(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shared null across tuples must stay shared, and the factory
	// floor must move past it.
	x := st.FreshNull()
	mustInsert(t, st, 1, tup("C", x))
	mustInsert(t, st, 1, tup("S", c("SYR"), x, c("Ithaca")))
	mustCommitBatch(t, st, 1)
	m.Close()

	st2, _, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st2.Dump(allSeeing), st.Dump(allSeeing); got != want {
		t.Fatalf("null identity lost:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := st2.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
	if fresh := st2.FreshNull(); fresh == x {
		t.Fatalf("recovered store re-minted null %s", fresh)
	}
}

// TestMintedNullsLogTheirName: a chase-minted null goes into the log as
// its (namespace, update, ordinal) name rather than the 9-byte uvarint
// of its identifier, a counter null as its identifier, and a minted
// null a log wrote as an identifier still decodes to the same value.
func TestMintedNullsLogTheirName(t *testing.T) {
	minted, err := model.MintedNull(3, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    model.Value
		size int
	}{
		{minted, 5}, // kind, 3, 1200 (two bytes), 7
		{n(300), 3}, // kind, 300 (two bytes)
		{c("NY"), 4},
	} {
		b := encodeValue(nil, tc.v)
		if len(b) != tc.size {
			t.Errorf("%v encodes to %d bytes, want %d", tc.v, len(b), tc.size)
		}
		r := reader{b}
		if got, err := r.value(); err != nil || got != tc.v || len(r.b) != 0 {
			t.Errorf("%v decodes to %v (%v), %d bytes left", tc.v, got, err, len(r.b))
		}
	}
	r := reader{binary.AppendUvarint([]byte{valNull}, uint64(minted.NullID()))}
	if got, err := r.value(); err != nil || got != minted {
		t.Errorf("an identifier-encoded minted null decodes to %v (%v), want %v", got, err, minted)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	// Tiny segments force a rotation every couple of batches.
	m, st, err := Open(dir, schema, Options{SegmentBytes: 256, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustInsert(t, st, i+1, tup("C", c(string(rune('a'+i)))))
		mustCommitBatch(t, st, i+1)
	}
	want := st.Dump(allSeeing)
	m.Close()

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v (err %v)", segs, err)
	}

	// Reopen: appends continue in the tail segment, and the whole
	// history still recovers.
	m2, st2, err := Open(dir, schema, Options{SegmentBytes: 256, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("reopen lost state:\n got:\n%s\nwant:\n%s", got, want)
	}
	mustInsert(t, st2, 1, tup("C", c("zz")))
	mustCommitBatch(t, st2, 1)
	want2 := st2.Dump(allSeeing)
	m2.Close()

	st3, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != 13 {
		t.Fatalf("LastBatch = %d, want 13", info.LastBatch)
	}
	if got := st3.Dump(allSeeing); got != want2 {
		t.Fatalf("recovery after reopen differs:\n got:\n%s\nwant:\n%s", got, want2)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{SegmentBytes: 128, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustInsert(t, st, i+1, tup("C", c(string(rune('a'+i)))))
		mustCommitBatch(t, st, i+1)
	}
	before, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(before) < 2 {
		t.Fatalf("want multiple segments before the checkpoint, got %d", len(before))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint retired no segments: %d before, %d after", len(before), len(after))
	}
	if m.LastCheckpoint() != 10 {
		t.Fatalf("LastCheckpoint = %d, want 10", m.LastCheckpoint())
	}
	// More commits after the checkpoint land in the surviving tail.
	mustInsert(t, st, 11, tup("C", c("post")))
	mustCommitBatch(t, st, 11)
	want := st.Dump(allSeeing)
	m.Close()

	st2, info, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointBatch != 10 || info.BatchesReplayed != 1 {
		t.Fatalf("info = %+v, want checkpoint 10 with 1 replayed batch", info)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("checkpoint+tail recovery differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := st2.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailRecoversCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string // committed instance after each batch
	for i := 0; i < 6; i++ {
		mustInsert(t, st, i+1, tup("C", c(string(rune('a'+i)))))
		mustCommitBatch(t, st, i+1)
		dumps = append(dumps, st.Dump(allSeeing))
	}
	m.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Cut the segment at every byte length from full down to the
	// header: the recovered instance must always equal the state after
	// the last wholly retained batch.
	offsets := batchEndOffsets(t, data)
	if len(offsets) != 6 {
		t.Fatalf("found %d batch frames, want 6", len(offsets))
	}
	for cut := int64(len(data)); cut >= headerLen; cut-- {
		if err := os.WriteFile(segs[0], data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, info, err := Recover(dir, schema)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for _, end := range offsets {
			if end <= cut {
				whole++
			}
		}
		if info.LastBatch != int64(whole) {
			t.Fatalf("cut %d: LastBatch = %d, want %d", cut, info.LastBatch, whole)
		}
		want := ""
		if whole > 0 {
			want = dumps[whole-1]
		}
		if got := st2.Dump(allSeeing); got != want {
			t.Fatalf("cut %d: recovered %q, want %q", cut, got, want)
		}
	}
}

// batchEndOffsets returns the file offset just past each frame.
func batchEndOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	var out []int64
	off := int64(headerLen)
	body := data[headerLen:]
	for {
		payload, rest, ok := nextFrame(body)
		if !ok {
			return out
		}
		off += int64(8 + len(payload))
		out = append(out, off)
		body = rest
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("x")))
	mustCommitBatch(t, st, 1)
	m.Close()

	other := model.NewSchema()
	other.MustAddRelation("C", "city", "extra")
	other.MustAddRelation("S", "code", "location", "city")
	if _, _, err := Recover(dir, other); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("recovery under a different schema: err = %v, want schema refusal", err)
	}
}

func TestCommitVetoOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := mustInsert(t, st, 1, tup("C", c("x")))
	m.Close() // closing the log makes the next append fail
	if err := st.CommitBatch([]int{1}); err == nil {
		t.Fatal("commit after log close succeeded")
	}
	if _, ok := st.EpochSnap().Get(id); ok {
		t.Fatal("writer committed although the append failed")
	}
}

func TestClonePrefix(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	for i := 0; i < 5; i++ {
		mustInsert(t, st, i+1, tup("C", c(string(rune('a'+i)))))
		mustCommitBatch(t, st, i+1)
		dumps = append(dumps, st.Dump(allSeeing))
	}
	m.Close()
	for k := int64(0); k <= 5; k++ {
		dst := filepath.Join(t.TempDir(), "clone")
		if err := ClonePrefix(dir, dst, k); err != nil {
			t.Fatal(err)
		}
		st2, info, err := Recover(dst, schema)
		if err != nil {
			t.Fatalf("clone upTo %d: %v", k, err)
		}
		if info.LastBatch != k {
			t.Fatalf("clone upTo %d recovered to batch %d", k, info.LastBatch)
		}
		want := ""
		if k > 0 {
			want = dumps[k-1]
		}
		if got := st2.Dump(allSeeing); got != want {
			t.Fatalf("clone upTo %d: got %q, want %q", k, got, want)
		}
	}
}

// contains reports whether a tuple with t's content is visible in sn.
func contains(sn *storage.Snapshot, t model.Tuple) bool {
	rows, _ := sn.ProbeRows(t.Rel, -1, model.Value{}, nil, func(vals []model.Value) (bool, bool) {
		eq := slices.Equal(vals, t.Vals)
		return eq, eq
	})
	return len(rows) > 0
}
