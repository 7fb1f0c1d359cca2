package chase

import (
	"fmt"
	"runtime"
	"testing"

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
// differential test relies on it). Used to panic with "assignment to
// entry in nil map".
func TestPublishAfterReleaseReads(t *testing.T) {
	u := NewUpdate(1, Op{})
	u.RecordRead(probeRead(0))
	u.ReleaseReads()
	if !u.RecordRead(probeRead(0)) {
		t.Fatal("a read repeated after the release was dropped: the release kept the dedupe index")
	}
	if u.RecordRead(probeRead(0)) {
		t.Fatal("duplicate after the release reported as new")
	}
	if !u.RecordRead(probeRead(1)) || len(u.StoredReads()) != 2 {
		t.Fatalf("log holds %d reads after release + 2 distinct reads", len(u.StoredReads()))
	}
}

// TestReleaseReadsKeepsCapacity: a release and a Reset empty the log
// but keep its array for the next attempt, and the kept array holds no
// dropped read. A release empties the dedup index of the context the
// attempt holds and keeps its buckets; a Reset gives the context back,
// emptied the same way.
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
		if len(u.reads) != 0 || len(c.readIdx) != 0 || cap(u.reads) != n || c.readIdx == nil {
			t.Fatalf("after release: %d reads, %d index entries, capacity %d of %d", len(u.reads), len(c.readIdx), cap(u.reads), n)
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
}

// TestReadLogHashCollision: reads whose identity hashes collide are
// told apart by structural equality — each distinct one is stored,
// each repeat dropped — and a Reset, which gives the context back,
// forgets the whole chain.
func TestReadLogHashCollision(t *testing.T) {
	u := NewUpdate(1, Op{})
	c := &queryContext{home: &Engine{}}
	u.qctx = c
	const h = 42
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			if got, want := c.addReadHashed(u, probeRead(i), h), round == 0; got != want {
				t.Fatalf("round %d read %d under one hash: taken = %v, want %v", round, i, got, want)
			}
		}
	}
	// A neighbour hash already claimed by the chain still finds its own.
	if !c.addReadHashed(u, probeRead(5), h+2) || c.addReadHashed(u, probeRead(5), h+2) {
		t.Fatal("a read hashing into the collision chain was mis-deduplicated")
	}
	if got := len(u.reads); got != 6 {
		t.Fatalf("log holds %d reads, want 6", got)
	}
	u.Reset()
	if !c.addReadHashed(u, probeRead(3), h) {
		t.Fatal("Reset kept the dedupe index")
	}
}

// TestReadDedupAcrossCollection: the read log is keyed by identity
// hashes, and a constant hashes by the address of its canonical copy,
// which identifies it only while some Value holds the copy. The log
// retains the reads it hashed, so across forced collections the
// constant stays alive, re-minting it from a fresh string yields the
// same copy and hash, and the repeated read is still recognized.
func TestReadDedupAcrossCollection(t *testing.T) {
	read := func() query.ReadQuery {
		return &query.ContentRead{
			Rel:      "R",
			Vals:     []model.Value{model.Const(fmt.Sprint("dedup-across-gc-", 7)), model.Null(3)},
			ReaderNo: 1,
		}
	}
	u := NewUpdate(1, Op{})
	if !u.RecordRead(read()) {
		t.Fatal("first read reported as a duplicate")
	}
	h := query.ReadHash(u.reads[0])
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	again := read()
	if query.ReadHash(again) != h {
		t.Fatal("re-minted constant hashes differently while the read log holds it")
	}
	if u.RecordRead(again) {
		t.Fatal("a read repeated after a collection was stored twice")
	}
}
