package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// Golden frames of the on-disk format, captured from an independent
// encoder; the in-place encoders must reproduce them byte for byte.
const (
	goldenBatch  = "3a000000479c264b01070203050303012a01000004000353595201ac020203b0090705022b000202010902000649746861636105032c0001020006426f73746f6e00"
	goldenPark   = "0f000000f86e2bd6020100010400016101050203b00907"
	goldenAnswer = "0d00000041d336f4030100086374783a5328612902"
	goldenResume = "0300000019705496040101"
	goldenCkpt   = "5957414c434b50312bb5147abe69e7cf280000003821632309ad02022a010004000353595201ac020203b009072c000100030102022c02017101017200022d2e"
)

func goldenMinted(t testing.TB) model.Value {
	t.Helper()
	v, err := model.MintedNull(3, 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// goldenRecs is a commit batch with a constant, a counter null and a
// minted null, nil Before and After sides, and a modify.
func goldenRecs(t testing.TB) []storage.WriteRec {
	return []storage.WriteRec{
		{Writer: 3, Seq: 1, ID: 42, Rel: "S", Op: storage.OpInsert, After: []model.Value{c("SYR"), n(300), goldenMinted(t)}},
		{Writer: 5, Seq: 2, ID: 43, Rel: "C", Op: storage.OpModify, Before: []model.Value{n(9)}, After: []model.Value{c("Ithaca")}},
		{Writer: 5, Seq: 3, ID: 44, Rel: "C", Op: storage.OpDelete, Before: []model.Value{c("Boston")}},
	}
}

func batchFrame(t testing.TB, cdc *codec, dst []byte, idx int64, writers []int, recs []storage.WriteRec) []byte {
	t.Helper()
	frame, err := appendFrame(dst, func(b []byte) ([]byte, error) {
		return cdc.encodeBatch(b, idx, writers, recs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func wantHex(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s frame\n got %s\nwant %s", what, h, want)
	}
}

func TestGoldenFrames(t *testing.T) {
	cdc := newCodec(testSchema())
	wantHex(t, "batch", batchFrame(t, cdc, nil, 7, []int{3, 5}, goldenRecs(t)), goldenBatch)

	park, err := appendFrame(nil, func(b []byte) ([]byte, error) {
		return cdc.encodePark(b, 1, chase.Insert(tup("S", c("a"), n(5), goldenMinted(t))))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantHex(t, "park", park, goldenPark)
	answer, _ := appendFrame(nil, func(b []byte) ([]byte, error) {
		return encodeAnswer(b, 1, 0, "ctx:S(a)", 2), nil
	})
	wantHex(t, "answer", answer, goldenAnswer)
	resume, _ := appendFrame(nil, func(b []byte) ([]byte, error) {
		return encodeResume(b, 1, true), nil
	})
	wantHex(t, "resume", resume, goldenResume)

	tuples := []storage.CommittedTuple{
		{ID: 42, Rel: "S", Vals: []model.Value{c("SYR"), n(300), goldenMinted(t)}},
		{ID: 44, Rel: "C", Deleted: true},
	}
	parked := []ParkedUpdate{{ID: 2, Op: chase.DeleteID(44),
		Answers: []inbox.Answer{{Context: "q", Option: 1}, {Context: "r", Option: 0}}}}
	ckpt, err := cdc.checkpointFile(9, 301, tuples, []int64{45, 46}, 3, parked)
	if err != nil {
		t.Fatal(err)
	}
	wantHex(t, "checkpoint", ckpt, goldenCkpt)

	// The golden frames still decode to what was encoded.
	payload, rest, ok := nextFrame(batchFrame(t, cdc, nil, 7, []int{3, 5}, goldenRecs(t)))
	if !ok || len(rest) != 0 {
		t.Fatal("golden batch frame does not parse")
	}
	rec, err := decodeBatch(payload, cdc.rels)
	if err != nil || rec.idx != 7 || len(rec.recs) != 3 || rec.recs[0].After[2] != goldenMinted(t) || rec.recs[2].After != nil {
		t.Fatalf("golden batch decodes to %+v (%v)", rec, err)
	}
	got, err := decodeCheckpoint(ckpt[ckptHdrLen+frameHdrLen:], cdc.rels)
	if err != nil || got.idx != 9 || got.nullFloor != 301 || len(got.tuples) != 2 || len(got.parked) != 1 || got.nextParkID != 3 {
		t.Fatalf("golden checkpoint decodes to %+v (%v)", got, err)
	}
}

// longRecs is a batch far longer than the golden one.
func longRecs(n int) []storage.WriteRec {
	recs := make([]storage.WriteRec, n)
	for i := range recs {
		recs[i] = storage.WriteRec{Writer: 1, Seq: int64(i + 1), ID: storage.TupleID(100 + i), Rel: "S", Op: storage.OpInsert,
			After: []model.Value{c("a long constant to fill the frame"), c("Syracuse"), c("Ithaca")}}
	}
	return recs
}

// TestFrameBufferReuse: a short frame encoded into the buffer a long
// one used is exactly the short frame's bytes, in memory and on disk.
func TestFrameBufferReuse(t *testing.T) {
	cdc := newCodec(testSchema())
	long := batchFrame(t, cdc, nil, 6, []int{1}, longRecs(40))
	short := batchFrame(t, cdc, long[:0], 7, []int{3, 5}, goldenRecs(t))
	wantHex(t, "reused-buffer batch", short, goldenBatch)

	dir := t.TempDir()
	m, _, err := Open(dir, testSchema(), Options{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.appendBatch([]int{1}, longRecs(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.appendBatch([]int{1}, longRecs(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.appendBatch([]int{3, 5}, goldenRecs(t)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	frames := segmentFrames(t, filepath.Join(dir, segName(1)))
	if len(frames) != 7 {
		t.Fatalf("segment holds %d frames, want 7", len(frames))
	}
	wantHex(t, "on-disk batch after a long one", frames[6], goldenBatch)
	if !bytes.Equal(frames[5], batchFrame(t, cdc, nil, 6, []int{1}, longRecs(40))) {
		t.Error("the long frame on disk differs from its encoding")
	}
}

func TestFrameLenBound(t *testing.T) {
	if err := checkFrameLen(frameMax); err != nil {
		t.Fatalf("a payload of exactly frameMax bytes refused: %v", err)
	}
	var tooLarge *FrameTooLargeError
	if err := checkFrameLen(frameMax + 1); !errors.As(err, &tooLarge) || tooLarge.Len != frameMax+1 || tooLarge.Max != frameMax {
		t.Fatalf("checkFrameLen(frameMax+1) = %v, want a *FrameTooLargeError", err)
	}
}

// TestOversizedFrameRefused: with the bound lowered, a commit batch
// whose frame would exceed it is vetoed before any byte reaches the
// segment, and a checkpoint that would exceed it leaves the old
// lineage in place; the log stays healthy.
func TestOversizedFrameRefused(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, st, 1, tup("C", c("Ithaca")))
	mustCommitBatch(t, st, 1)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := st.Dump(allSeeing)
	before := dirSizes(t, dir)

	bound := frameMax
	defer func() { frameMax = bound }()
	frameMax = 8
	id := mustInsert(t, st, 2, tup("C", c("a city name longer than the bound")))
	var tooLarge *FrameTooLargeError
	if err := st.CommitBatch([]int{2}); !errors.As(err, &tooLarge) {
		t.Fatalf("oversized commit returned %v, want a *FrameTooLargeError", err)
	}
	if _, ok := st.EpochSnap().Get(id); ok {
		t.Fatal("the oversized batch committed")
	}
	if err := m.Checkpoint(); !errors.As(err, &tooLarge) {
		t.Fatalf("oversized checkpoint returned %v, want a *FrameTooLargeError", err)
	}
	if after := dirSizes(t, dir); !maps.Equal(before, after) {
		t.Fatalf("refused frames touched the directory: %v → %v", before, after)
	}
	if h := m.Health(); h.State != StateHealthy {
		t.Fatalf("health after a refused frame = %v, want healthy", h.State)
	}
	frameMax = bound
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Recover(dir, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
}

func dirSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// TestCommitAppendAllocs pins the warm commit append: the frame is
// encoded in the manager's reused buffer, so under SyncNever an append
// allocates nothing, and under SyncAlways only its ack closure.
func TestCommitAppendAllocs(t *testing.T) {
	for _, tc := range []struct {
		sync SyncPolicy
		want float64
	}{{SyncNever, 0}, {SyncAlways, 1}} {
		m, _, err := Open(t.TempDir(), testSchema(), Options{Sync: tc.sync, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		writers, recs := []int{1}, goldenRecs(t)
		got := testing.AllocsPerRun(50, func() {
			ack, err := m.appendBatch(writers, recs)
			if err != nil {
				t.Fatal(err)
			}
			if ack != nil {
				if err := ack(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got != tc.want {
			t.Errorf("sync %v: %.1f allocations per warm append, want %.0f", tc.sync, got, tc.want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures one warm commit append under SyncNever:
// encoding the frame in place and writing it to the segment.
func BenchmarkWALAppend(b *testing.B) {
	m, _, err := Open(b.TempDir(), testSchema(), Options{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	writers, recs := []int{3, 5}, goldenRecs(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.appendBatch(writers, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// segmentFrames returns the whole frames of a segment file.
func segmentFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for b := data[headerLen:]; len(b) > 0; {
		payload, rest, ok := nextFrame(b)
		if !ok {
			t.Fatalf("%s has a torn frame after %d whole ones", filepath.Base(path), len(frames))
		}
		frames = append(frames, b[:frameHdrLen+len(payload)])
		b = rest
	}
	return frames
}

// TestControlAppendDuringRotationWait: a commit append that must rotate
// waits out an in-flight sync with its frame already encoded, releasing
// m.mu. A control append that rotates and writes meanwhile must neither
// overwrite the waiting frame (the frame buffer is on loan) nor make
// the commit rotate a second time onto the segment it just created.
func TestControlAppendDuringRotationWait(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, testSchema(), Options{Sync: SyncNever, SegmentBytes: 64, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.appendBatch([]int{3, 5}, goldenRecs(t)); err != nil {
		t.Fatal(err)
	}
	// SyncNever runs no syncer, so the in-flight sync is simulated.
	m.mu.Lock()
	m.syncing = true
	m.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := m.appendBatch([]int{3, 5}, goldenRecs(t))
		done <- err
	}()
	// The commit holds m.mu from taking the frame buffer until its
	// wait, so seeing the buffer on loan means it is waiting.
	deadline := time.Now().Add(10 * time.Second)
	for loaned := false; !loaned; {
		m.mu.Lock()
		if loaned = m.frame == nil; loaned {
			m.syncing = false
		}
		m.mu.Unlock()
		if !loaned {
			if time.Now().After(deadline) {
				t.Fatal("the commit append never took the frame buffer on loan")
			}
			runtime.Gosched()
		}
	}
	if _, err := m.AppendPark(chase.Insert(tup("S", c("a"), n(5), goldenMinted(t)))); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.syncCond.Broadcast()
	m.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("the waiting commit append failed: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	frames := segmentFrames(t, filepath.Join(dir, segName(2)))
	if len(frames) != 2 {
		t.Fatalf("second segment holds %d frames, want the park and batch 2", len(frames))
	}
	wantHex(t, "park", frames[0], goldenPark)
	if want := batchFrame(t, newCodec(testSchema()), nil, 2, []int{3, 5}, goldenRecs(t)); !bytes.Equal(frames[1], want) {
		t.Errorf("batch 2 on disk\n got %x\nwant %x", frames[1], want)
	}
}
