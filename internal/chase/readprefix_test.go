package chase

import (
	"fmt"
	"runtime"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/query"
)

// These tests pin the epoch-published read-prefix contract the
// conflict check depends on: every change publishes a fresh immutable
// record with a bumped epoch, and previously loaded records are never
// disturbed by later appends, releases, or resets.

func probeRead(n int) query.ReadQuery {
	return &query.ContentRead{
		Rel:      "R",
		Vals:     []model.Value{model.Const(string(rune('a' + n)))},
		ReaderNo: 1,
	}
}

func TestReadPrefixPublication(t *testing.T) {
	u := NewUpdate(1, Op{})
	p0 := u.PublishedReads()
	if len(p0.Reads) != 0 || p0.Epoch != 0 {
		t.Fatalf("fresh update published %d reads at epoch %d, want nothing published", len(p0.Reads), p0.Epoch)
	}
	if u.HasReads() {
		t.Fatal("fresh update claims reads")
	}

	u.PublishRead(probeRead(0))
	u.PublishRead(probeRead(1))
	p2 := u.PublishedReads()
	if len(p2.Reads) != 2 || p2.Attempt != 1 {
		t.Fatalf("published = %d reads at attempt %d, want 2 at 1", len(p2.Reads), p2.Attempt)
	}
	if p2.Epoch <= p0.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", p0.Epoch, p2.Epoch)
	}

	// A loaded record is immutable: later appends must not disturb it.
	u.PublishRead(probeRead(2))
	if len(p2.Reads) != 2 {
		t.Fatalf("snapshot grew to %d reads after a later append", len(p2.Reads))
	}
	if len(u.PublishedReads().Reads) != 3 {
		t.Fatalf("live prefix = %d reads, want 3", len(u.PublishedReads().Reads))
	}

	// Deduplicated publication does not spend an epoch.
	before := u.PublishedReads().Epoch
	if u.PublishRead(probeRead(2)) {
		t.Fatal("duplicate read reported as new")
	}
	if got := u.PublishedReads().Epoch; got != before {
		t.Fatalf("duplicate publication bumped epoch %d -> %d", before, got)
	}

	// ReleaseReads empties the live record; the old snapshot survives.
	u.ReleaseReads()
	if u.HasReads() || len(u.PublishedReads().Reads) != 0 {
		t.Fatal("release left reads published")
	}
	if len(p2.Reads) != 2 {
		t.Fatal("release disturbed an earlier snapshot")
	}

	// Reset publishes the new attempt, so a stale record is detectable
	// by its attempt exactly as a restarted victim is today.
	u.Reset()
	p := u.PublishedReads()
	if p.Attempt != u.Attempt || p.Attempt != 2 {
		t.Fatalf("reset published attempt %d, update at %d", p.Attempt, u.Attempt)
	}
	if p.Epoch <= p2.Epoch {
		t.Fatalf("reset did not advance the epoch: %d -> %d", p2.Epoch, p.Epoch)
	}
}

// TestPublishAfterReleaseReads: a release empties the log but the
// attempt may go on reading (a committed update is only released once,
// but nothing in the API forbids the order, and the observer-driven
// differential test relies on it). Used to panic with "assignment to
// entry in nil map".
func TestPublishAfterReleaseReads(t *testing.T) {
	u := NewUpdate(1, Op{})
	u.PublishRead(probeRead(0))
	u.ReleaseReads()
	if !u.PublishRead(probeRead(0)) {
		t.Fatal("a read repeated after the release was dropped: the release kept the dedupe index")
	}
	if u.PublishRead(probeRead(0)) {
		t.Fatal("duplicate after the release reported as new")
	}
	if !u.PublishRead(probeRead(1)) || len(u.StoredReads()) != 2 {
		t.Fatalf("log holds %d reads after release + 2 distinct reads", len(u.StoredReads()))
	}
}

// TestReadLogHashCollision: reads whose identity hashes collide are
// told apart by structural equality — each distinct one is stored,
// each repeat dropped — and a Reset forgets the whole chain.
func TestReadLogHashCollision(t *testing.T) {
	u := NewUpdate(1, Op{})
	const h = 42
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			if got, want := u.addReadHashed(probeRead(i), h), round == 0; got != want {
				t.Fatalf("round %d read %d under one hash: taken = %v, want %v", round, i, got, want)
			}
		}
	}
	// A neighbour hash already claimed by the chain still finds its own.
	if !u.addReadHashed(probeRead(5), h+2) || u.addReadHashed(probeRead(5), h+2) {
		t.Fatal("a read hashing into the collision chain was mis-deduplicated")
	}
	if got := len(u.reads); got != 6 {
		t.Fatalf("log holds %d reads, want 6", got)
	}
	u.Reset()
	if !u.addReadHashed(probeRead(3), h) {
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
	if !u.addRead(read()) {
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
	if u.addRead(again) {
		t.Fatal("a read repeated after a collection was stored twice")
	}
}
