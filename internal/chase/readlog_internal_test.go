package chase

import (
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
// the context back.
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
}
