package cc

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/workload"
)

// fullCandidates is the walk the live window replaced, kept as the
// reference: every uncommitted txn numbered above the writer that has
// stored reads.
func fullCandidates(txns []*Txn, writer int) []*Txn {
	var out []*Txn
	for _, t := range txns {
		if t.Number > writer && !t.committed && t.Upd != nil && len(t.Upd.StoredReads()) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// fullRemovalCandidates is the reference walk of removalCandidatesInto
// outside any wave: every uncommitted txn with a stored violation read,
// none in ModeFlag.
func fullRemovalCandidates(cfg *Config, txns []*Txn) []*Txn {
	if cfg.Mode == ModeFlag {
		return nil
	}
	var out []*Txn
	for _, t := range txns {
		if t.committed || t.Upd == nil {
			continue
		}
		if slices.ContainsFunc(t.Upd.StoredReads(), func(q query.ReadQuery) bool {
			_, ok := q.(*query.ViolationRead)
			return ok
		}) {
			out = append(out, t)
		}
	}
	return out
}

// WindowWatch is a store decorator for the external batteries. Before
// each write lands, it checks the live window of the scheduler it is
// attached to against the full walk of every txn: the direct
// candidates above the writer and the removal candidates must be the
// same txns, and no txn outside the window, nor one inside it that has
// not started, may hold an update, stored reads or a dependency. The
// check runs where the writes land, inside the step that performs
// them.
type WindowWatch struct {
	storage.Backend
	tb testing.TB
	c  *Scheduler

	// Writes counts the checked writes, Candidates the direct
	// candidates they found, Removal the removal candidates, and
	// Narrowed the writes whose window left some txn out.
	Writes, Candidates, Removal, Narrowed int
}

// WatchWindow decorates st; Attach names the scheduler to watch.
func WatchWindow(tb testing.TB, st storage.Backend) *WindowWatch {
	return &WindowWatch{Backend: st, tb: tb}
}

// Attach starts watching a scheduler built over the decorated store.
func (w *WindowWatch) Attach(s *Scheduler) { w.c = s }

func (w *WindowWatch) check(writer int) {
	c := w.c
	if c == nil {
		return
	}
	w.Writes++
	got := candidatesInto(nil, above(c.live(), writer))
	want := fullCandidates(c.txns, writer)
	if !slices.Equal(got, want) {
		w.tb.Errorf("write by %d: window [%d:%d] candidates %v, full walk %v",
			writer, c.committedUpTo, c.top, numbers(got), numbers(want))
	}
	w.Candidates += len(want)
	gotR := removalCandidatesInto(nil, &c.cfg, c.live(), nil)
	wantR := fullRemovalCandidates(&c.cfg, c.txns)
	if !slices.Equal(gotR, wantR) {
		w.tb.Errorf("write by %d: window [%d:%d] removal candidates %v, full walk %v",
			writer, c.committedUpTo, c.top, numbers(gotR), numbers(wantR))
	}
	w.Removal += len(wantR)
	if c.top-c.committedUpTo < len(c.txns) {
		w.Narrowed++
	}
	for i, t := range c.txns {
		inWindow := i >= c.committedUpTo && i < c.top
		if (!inWindow && t.Upd != nil) || (t.Upd == nil && !t.committed && len(t.deps) > 0) {
			w.tb.Errorf("write by %d: txn %d outside window [%d:%d] or not started holds an update or dependencies",
				writer, t.Number, c.committedUpTo, c.top)
		}
	}
}

func numbers(txns []*Txn) []int {
	out := make([]int, len(txns))
	for i, t := range txns {
		out[i] = t.Number
	}
	return out
}

// Insert implements storage.Backend.
func (w *WindowWatch) Insert(writer int, t model.Tuple) (storage.TupleID, storage.WriteRec, bool, error) {
	w.check(writer)
	return w.Backend.Insert(writer, t)
}

// Delete implements storage.Backend.
func (w *WindowWatch) Delete(writer int, id storage.TupleID) (storage.WriteRec, bool, error) {
	w.check(writer)
	return w.Backend.Delete(writer, id)
}

// DeleteContent implements storage.Backend.
func (w *WindowWatch) DeleteContent(writer int, t model.Tuple) ([]storage.WriteRec, error) {
	w.check(writer)
	return w.Backend.DeleteContent(writer, t)
}

// ReplaceNull implements storage.Backend.
func (w *WindowWatch) ReplaceNull(writer int, x, to model.Value) ([]storage.WriteRec, error) {
	w.check(writer)
	return w.Backend.ReplaceNull(writer, x, to)
}

// TestSchedulerAllocBudget is the scheduler's twin of
// core.TestApplyAllocBudget: a run allocates at most its pinned bytes
// per update. At width 1, all-insert updates, each a forward repair
// through A(x) -> B(x), run one after another, and the run creates no
// more chase.Update values than the peak number of live txns holding
// one — a committed txn's update is renewed for the next txn's first
// step. At width 0 every update of a §6-generator window is in flight
// at once, with its aborts and frontier questions, and the step and
// frontier scratch is the engine's, not each attempt's.
func TestSchedulerAllocBudget(t *testing.T) {
	t.Run("width=1", func(t *testing.T) {
		const n = 400
		const bytesBound = 1300 // 793 measured, 1183 when this bound was set
		schema := model.NewSchema()
		schema.MustAddRelation("A", "x")
		schema.MustAddRelation("B", "x")
		set := tgd.MustNewSet(tgd.New("m",
			[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"))}))
		if err := set.Validate(schema); err != nil {
			t.Fatal(err)
		}
		ops := make([]chase.Op, n)
		for i := range ops {
			ops[i] = chase.Insert(model.NewTuple("A", model.Const(fmt.Sprint("a", i))))
		}
		s := NewScheduler(storage.NewStore(schema), set, Config{Workers: 1})
		// Everything runs on the calling goroutine, so the read observer
		// may look at every txn's update.
		seen := map[*chase.Update]bool{}
		peak := 0
		s.engine.SetReadObserver(func(u *chase.Update, q query.ReadQuery) {
			seen[u] = true
			live := 0
			for _, tx := range s.txns {
				if tx.Upd != nil && !tx.committed {
					live++
				}
			}
			peak = max(peak, live)
			s.onRead(u, q)
		})
		m := runAllocBudget(t, s, ops, bytesBound)
		if m.Runs != n {
			t.Fatalf("%d runs of %d updates: the workload is not conflict-free", m.Runs, n)
		}
		t.Logf("%d updates created, peak %d live", len(seen), peak)
		if len(seen) > peak {
			t.Errorf("the run created %d updates for a peak of %d live txns", len(seen), peak)
		}
	})
	t.Run("width=0", func(t *testing.T) {
		// 16887 measured, plus 3%. Most of the window's bytes are its
		// conflict checks and seeded queries, in package query, so a
		// 10% margin would also admit step scratch held per attempt
		// (18264 bytes per update).
		const bytesBound = 17400
		u, err := workload.Build(workload.Quick())
		if err != nil {
			t.Fatal(err)
		}
		st, err := u.NewBackend()
		if err != nil {
			t.Fatal(err)
		}
		ops := u.GenOpsSeeded(1)
		m := runAllocBudget(t, NewScheduler(st, u.Mappings, Config{User: simuser.New(1)}), ops, bytesBound)
		if m.Aborts == 0 || m.FrontierOps == 0 {
			t.Fatalf("%d aborts and %d frontier operations: the window does not exercise what it pins", m.Aborts, m.FrontierOps)
		}
	})
}

// runAllocBudget runs ops on s and fails t when the run allocates more
// than bound bytes per update.
func runAllocBudget(t *testing.T, s *Scheduler, ops []chase.Op, bound float64) Metrics {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m, err := s.Run(ops)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(ops))
	t.Logf("%.0f bytes per update over %d runs of %d updates", bytes, m.Runs, len(ops))
	if bytes > bound {
		t.Errorf("%.0f bytes per update, budget %.0f", bytes, bound)
	}
	return m
}

// TestAbortWaveReadsRemovedLogWarm pins where an abort wave reads a
// victim's removed writes for the drift checks: into the step
// scratch's reused buffer, cleared after the checks, so that a warm
// wave allocates only its marked set and its queue.
func TestAbortWaveReadsRemovedLogWarm(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x")
	schema.MustAddRelation("C", "x")
	m := tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"))})
	set := tgd.MustNewSet(m)
	if err := set.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	for _, v := range []string{"c1", "c2"} {
		if _, _, _, err := st.Insert(1, model.NewTuple("C", model.Const(v))); err != nil {
			t.Fatal(err)
		}
	}
	victim := &Txn{Number: 1, Upd: chase.NewUpdate(1, chase.Op{})}
	reader := &Txn{Number: 2, Upd: chase.NewUpdate(2, chase.Op{})}
	reader.Upd.RecordRead(&query.ViolationRead{TGD: m, SeedRel: "A", ReaderNo: 2, ReadSeqs: make([]int64, len(m.Relations()))})
	cfg := Config{Tracker: Coarse{}}
	sc := new(stepScratch)
	var metrics Metrics
	wave := func() {
		// The rollback leaves the victim's writes in place, so every
		// wave reads the same two records.
		err := executeAbortWave(st, &cfg, []*Txn{victim, reader}, []*Txn{victim}, &metrics, sc, func(*Txn) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	wave()
	if len(sc.removed) != 2 || sc.removed[0].After != nil || sc.removed[1].After != nil {
		t.Fatalf("the wave read the removed writes into %v, want two cleared records", sc.removed)
	}
	if allocs := testing.AllocsPerRun(100, wave); allocs > 2 {
		t.Fatalf("a warm abort wave allocates %.0f times, want at most 2 (marked set, queue)", allocs)
	}
}
