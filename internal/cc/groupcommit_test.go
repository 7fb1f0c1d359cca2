package cc

import (
	"slices"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// These white-box tests pin the group-commit frontier: one drain
// commits the whole terminated prefix, in priority order, through a
// single storage CommitBatch. The frontier reads each update's own
// state; no scheduler-side mirror of it exists.

func groupCommitScheduler(t *testing.T, n int) *Scheduler {
	t.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("R", "a")
	st := storage.NewStore(schema)
	s := NewScheduler(st, tgd.MustNewSet(), Config{Workers: 1})
	ops := make([]chase.Op, n)
	for i := range ops {
		ops[i] = chase.Insert(model.NewTuple("R", model.Const(string(rune('a'+i)))))
	}
	s.begin(ops)
	// Start each txn and drive its update to termination through the
	// engine (no mappings: the initial insert is the whole chase).
	for i := range ops {
		u := s.start().Upd
		if _, err := s.engine.Step(u); err != nil {
			t.Fatal(err)
		}
		if _, err := s.engine.Step(u); err != nil {
			t.Fatal(err)
		}
		if u.State() != chase.StateTerminated {
			t.Fatalf("update %d state = %v, want terminated", i+1, u.State())
		}
	}
	return s
}

func TestGroupCommitDrainsTerminatedPrefix(t *testing.T) {
	const n = 5
	s := groupCommitScheduler(t, n)
	w := WatchCommits(t)
	if k, err := s.commitReady(); err != nil || k == 0 {
		t.Fatalf("commitReady on a terminated prefix: committed %d, err=%v", k, err)
	}
	txns := w.Txns(n)
	for i := 1; i <= n; i++ {
		if !contains(s.store.EpochSnap(), model.NewTuple("R", model.Const(string(rune('a'+i-1))))) {
			t.Fatalf("update %d not committed by the drain", i)
		}
		if !txns[i-1].Committed {
			t.Fatalf("txn %d mirror not committed", i)
		}
	}
	m := s.Metrics()
	if m.CommitBatches != 1 {
		t.Fatalf("CommitBatches = %d, want 1 (one drain for the whole prefix)", m.CommitBatches)
	}
	if m.MaxCommitBatch != n {
		t.Fatalf("MaxCommitBatch = %d, want %d", m.MaxCommitBatch, n)
	}
	if s.committedUpTo != n {
		t.Fatalf("committedUpTo = %d, want %d", s.committedUpTo, n)
	}
	// A second drain finds nothing.
	if k, err := s.commitReady(); err != nil || k != 0 {
		t.Fatalf("second commitReady: committed %d, err=%v, want no progress", k, err)
	}
}

func TestGroupCommitStopsAtFirstUnterminated(t *testing.T) {
	const n = 4
	s := groupCommitScheduler(t, n)
	// Update 3 is still mid-chase: reset it to a fresh (ready) attempt.
	s.store.Abort(3)
	s.txn(3).Upd.Reset()

	w := WatchCommits(t)
	if k, err := s.commitReady(); err != nil || k == 0 {
		t.Fatalf("commitReady: committed %d, err=%v, want progress", k, err)
	}
	txns := w.Txns(n)
	for i := 1; i <= 2; i++ {
		if !txns[i-1].Committed {
			t.Fatalf("txn %d (before the gap) not committed", i)
		}
	}
	for i := 3; i <= n; i++ {
		if txns[i-1].Committed {
			t.Fatalf("txn %d (at/after the gap) committed across a non-terminated update", i)
		}
	}
	m := s.Metrics()
	if m.MaxCommitBatch != 2 {
		t.Fatalf("MaxCommitBatch = %d, want 2", m.MaxCommitBatch)
	}
}

func TestParallelRunBatchesCommits(t *testing.T) {
	// An end-to-end run on a conflict-free workload at width 4: each
	// round steps several updates, so the drain between rounds commits
	// whatever prefix terminated, and every update commits.
	schema := model.NewSchema()
	schema.MustAddRelation("R", "a", "b")
	st := storage.NewStore(schema)
	var ops []chase.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, chase.Insert(model.NewTuple("R",
			model.Const(string(rune('a'+i%26))), model.Const(string(rune('a'+i/26))))))
	}
	s := NewScheduler(st, tgd.MustNewSet(), Config{Workers: 4})
	w := WatchCommits(t)
	m, err := s.Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommitBatches == 0 || m.CommitBatches > m.Submitted {
		t.Fatalf("CommitBatches = %d out of range (submitted %d)", m.CommitBatches, m.Submitted)
	}
	for _, txn := range w.Txns(len(ops)) {
		if !txn.Committed {
			t.Fatalf("update %d never committed", txn.Number)
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
