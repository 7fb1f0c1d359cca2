package chase

import (
	"testing"
	"unsafe"

	"youtopia/internal/model"
	"youtopia/internal/query"
)

func probeRead(n int) query.ReadQuery {
	return &query.ContentRead{
		Rel:      "R",
		Vals:     []model.Value{model.Const(string(rune('a' + n)))},
		ReaderNo: 1,
	}
}

// TestPublishAfterReleaseReads: a release empties the log but the
// attempt may go on reading (a committed update is only released once,
// but nothing in the API forbids the order, and the observer-driven
// differential test relies on it): every later read is logged.
func TestPublishAfterReleaseReads(t *testing.T) {
	u := NewUpdate(1, Op{})
	u.RecordRead(probeRead(0))
	u.ReleaseReads()
	u.RecordRead(probeRead(0))
	u.RecordRead(probeRead(1))
	if got := len(u.StoredReads()); got != 2 {
		t.Fatalf("log holds %d reads after release + 2 reads, want 2", got)
	}
}

// TestReleaseReadsKeepsCapacity: a release and a Reset empty the log
// but keep its array for the next attempt, and the kept array holds no
// dropped read. A release leaves the attempt its context; a Reset gives
// the context back. The reads an engine built go back to its read pool,
// emptied, up to the pool's bound; a log holding a read recorded
// through RecordRead gives nothing back, so the caller's read is never
// emptied or handed to a later read.
func TestReleaseReadsKeepsCapacity(t *testing.T) {
	u := NewUpdate(1, Op{})
	home := &Engine{}
	for _, reset := range []bool{false, true} {
		u.qctx = &queryContext{home: home}
		for i := 0; i < 5; i++ {
			u.RecordRead(probeRead(i))
		}
		c, n := u.qctx, cap(u.reads)
		if reset {
			u.Reset()
		} else {
			u.ReleaseReads()
		}
		if len(u.reads) != 0 || cap(u.reads) != n {
			t.Fatalf("after release: %d reads, capacity %d of %d", len(u.reads), cap(u.reads), n)
		}
		if held := u.qctx == c; held == reset {
			t.Fatalf("reset %v: the update holds its context: %v", reset, held)
		}
		for _, q := range u.reads[:n] {
			if q != nil {
				t.Fatal("the kept array still holds a dropped read")
			}
		}
	}
	if len(home.idle) != 1 {
		t.Fatalf("%d idle contexts after one Reset, want 1", len(home.idle))
	}

	home.observer = func(*Update, query.ReadQuery) {}
	vals := []model.Value{model.Const("a")}
	built := func(n int) []query.ReadQuery {
		out := make([]query.ReadQuery, n)
		for i := range out {
			out[i] = home.reads.content("R", vals, 1)
			home.record(u, out[i])
		}
		return out
	}
	// A log mixing the engine's reads with a caller's gives none back.
	mixed := built(2)
	caller := probeRead(2)
	u.RecordRead(caller)
	u.ReleaseReads()
	for _, q := range append(mixed, caller) {
		if q.Reader() != 1 {
			t.Fatalf("a release of a log holding a recorded read emptied %s", q)
		}
	}
	if n := len(home.reads.contents); n != 0 {
		t.Fatalf("a release of a log holding a recorded read pooled %d reads", n)
	}
	// The engine's reads alone all go back, emptied, up to the bound.
	reads := built(maxPooledReads + 3)
	u.ReleaseReads()
	if n := len(home.reads.contents); n != maxPooledReads {
		t.Fatalf("%d pooled content reads after releasing %d, want the bound %d", n, len(reads), maxPooledReads)
	}
	for _, q := range reads {
		if q.Reader() != query.ReleasedReader {
			t.Fatalf("a released read still reads as reader %d", q.Reader())
		}
	}
	if q := home.reads.content("R", vals, 4); q != reads[len(reads)-4] {
		t.Fatal("the next content read is not the last one the pool kept")
	}
}

// TestUpdateFitsItsSizeClass: the read log's pool pointer and lent bit
// keep an Update in the 384-byte size class, so a fresh update, as each
// one in a cooperative window is, allocates no more than before reads
// were pooled.
func TestUpdateFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Update{}); size > 384 {
		t.Fatalf("Update is %d bytes, past the 384-byte size class", size)
	}
}
