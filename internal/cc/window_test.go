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

// WindowWatch is a store decorator for the external batteries. Before
// each write lands, it checks the live window of the scheduler it is
// attached to against a full walk that does not use the window: every
// update that has stored a read, under the number it read for, while
// the store has not committed that number. The direct candidates above
// the writer and the removal candidates must be the same txns; every
// such update must be the update of the window's record for its
// number, and no record off the window may hold stored reads. The
// check runs where the writes land, inside the step that performs
// them.
type WindowWatch struct {
	storage.Backend
	tb testing.TB
	c  *Scheduler
	// read maps each number to the last update that stored a read for
	// it; committed holds the numbers the store committed.
	read      map[int]*chase.Update
	committed map[int]bool

	// Writes counts the checked writes, Candidates the direct
	// candidates they found, Removal the removal candidates, and
	// Narrowed the writes whose window left some txn out.
	Writes, Candidates, Removal, Narrowed int
}

// WatchWindow decorates st; Attach names the scheduler to watch.
func WatchWindow(tb testing.TB, st storage.Backend) *WindowWatch {
	return &WindowWatch{Backend: st, tb: tb, read: map[int]*chase.Update{}, committed: map[int]bool{}}
}

// Attach starts watching a scheduler built over the decorated store:
// its read observer notes every reading update before the scheduler
// sees the read.
func (w *WindowWatch) Attach(s *Scheduler) {
	w.c = s
	s.engine.SetReadObserver(func(u *chase.Update, q query.ReadQuery) {
		w.read[u.Number] = u
		s.onRead(u, q)
	})
}

// liveReaders returns the full walk: the numbers above writer, in
// ascending order, of the uncommitted txns whose update has stored
// reads that keep passes.
func (w *WindowWatch) liveReaders(writer int, keep func(query.ReadQuery) bool) []int {
	var out []int
	for n, u := range w.read {
		// A renewed update reads for its new number.
		if n <= writer || w.committed[n] || u.Number != n {
			continue
		}
		if slices.ContainsFunc(u.StoredReads(), keep) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

func anyRead(query.ReadQuery) bool { return true }

func violationRead(q query.ReadQuery) bool {
	_, ok := q.(*query.ViolationRead)
	return ok
}

func (w *WindowWatch) check(writer int) {
	c := w.c
	if c == nil {
		return
	}
	w.Writes++
	got := numbers(candidatesInto(nil, above(c.live(), writer)))
	want := w.liveReaders(writer, anyRead)
	if !slices.Equal(got, want) {
		w.tb.Errorf("write by %d: window [%d:%d] candidates %v, full walk %v",
			writer, c.committedUpTo, c.top(), got, want)
	}
	w.Candidates += len(want)
	gotR := numbers(removalCandidatesInto(nil, &c.cfg, c.live(), nil))
	var wantR []int
	if c.cfg.Mode != ModeFlag {
		wantR = w.liveReaders(0, violationRead)
	}
	if !slices.Equal(gotR, wantR) {
		w.tb.Errorf("write by %d: window [%d:%d] removal candidates %v, full walk %v",
			writer, c.committedUpTo, c.top(), gotR, wantR)
	}
	w.Removal += len(wantR)
	if len(c.live()) < len(c.ops) {
		w.Narrowed++
	}
	for n, u := range w.read {
		if w.committed[n] || u.Number != n {
			continue
		}
		if t := c.txn(n); t == nil || t.Upd != u {
			w.tb.Errorf("write by %d: txn %d holds an update outside window [%d:%d]",
				writer, n, c.committedUpTo, c.top())
		}
	}
	for _, t := range c.free {
		if len(t.Upd.StoredReads()) > 0 {
			w.tb.Errorf("write by %d: a free record holds the reads of txn %d", writer, t.Number)
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

// CommitBatchAsync implements storage.Backend.
func (w *WindowWatch) CommitBatchAsync(writers []int) (storage.CommitAck, error) {
	for _, n := range writers {
		w.committed[n] = true
	}
	return w.Backend.CommitBatchAsync(writers)
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
// more chase.Update values and Txn records than the peak number of live
// txns — a committed txn's record and update are renewed for the next
// txn's first step. At width 0 every update of a §6-generator window is in flight
// at once, with its aborts and frontier questions, and the step and
// frontier scratch is the engine's, not each attempt's.
func TestSchedulerAllocBudget(t *testing.T) {
	t.Run("width=1", func(t *testing.T) {
		const n = 400
		// 202 measured (207 under -race). The bound was 270 (247
		// measured) while each stripe index was a Go map from a key to
		// its member or to a list, which grew by doubling and splitting
		// its tables as keys arrived; the indexes are now sorted runs in
		// fixed pages. It was 400 (382 measured) while each
		// relation's member list and record table regrew by insertion and
		// a labeled null was indexed under its column as well as in the
		// null index; the store's tuple table now grows by fixed pages.
		// It was 520 (472 measured) while every
		// submitted op had a Txn record for the whole run; a committed
		// txn's record now goes back to the free list with its update for
		// the next txn's start. It was 1300 (759 measured) while each
		// stored read was a fresh record; a committed update's reads go
		// back to the engine's read pool for the next update's reads, and
		// the commit batch's number list is the scheduler's own.
		const bytesBound = 225
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
		// may look at the live window.
		seen, records := map[*chase.Update]bool{}, map[*Txn]bool{}
		peak := 0
		s.engine.SetReadObserver(func(u *chase.Update, q query.ReadQuery) {
			seen[u] = true
			for _, tx := range s.live() {
				records[tx] = true
			}
			peak = max(peak, len(s.live()))
			s.onRead(u, q)
		})
		m := runAllocBudget(t, s, ops, bytesBound)
		if m.Runs != n {
			t.Fatalf("%d runs of %d updates: the workload is not conflict-free", m.Runs, n)
		}
		t.Logf("%d updates and %d txn records created, peak %d live", len(seen), len(records), peak)
		if len(seen) > peak || len(records) > peak {
			t.Errorf("the run created %d updates and %d txn records for a peak of %d live txns", len(seen), len(records), peak)
		}
	})
	t.Run("width=0", func(t *testing.T) {
		// 9909 measured (9982 before the store's tuple table moved into
		// fixed pages and a null into the null index only, 9688–9709
		// once the indexes did too, 9791 under -race); the bound is
		// 9984 plus 3%, as -race runs read about 110 bytes more and
		// swing by 140. Most of the window's bytes are its
		// seeded queries and stored reads, in package query, so a 10%
		// margin would also admit step scratch held per attempt. The
		// bound was 17400 (16887 measured) while a stored violation read
		// allocated a per-relation read vector and a rendered answer
		// string beside itself and a dedup index kept its identity, and
		// 12900 (12524 measured) while each stored read was a fresh
		// record. An aborted attempt's and a committed update's reads now
		// go back to the engine's read pool, and an answer of several
		// violations is copied into arrays a pooled record already owns.
		const bytesBound = 10290
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

// TestTxnRecordsBoundedByLiveWindow pins the life of a txn record: it
// is made at the txn's first step and recycled at its commit, with its
// update, for a later txn's first step. On a §6-generator window with
// aborts and frontier questions, a run at widths 0, 1 and 2 creates no
// more Txn records and chase.Update values than its peak live window,
// and the txns commit in number order. Width 0 starts every txn in its
// first round, so only the narrower widths recycle. The window only grows
// in rounds and only shrinks in a commit drain, so its peak is its
// length at some commit.
func TestTxnRecordsBoundedByLiveWindow(t *testing.T) {
	u, err := workload.Build(workload.Quick())
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(1)
	for _, width := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			st, err := u.NewBackend()
			if err != nil {
				t.Fatal(err)
			}
			s := NewScheduler(st, u.Mappings, Config{User: simuser.New(1), Workers: width})
			records, updates := map[*Txn]bool{}, map[*chase.Update]bool{}
			committed, peak := 0, 0
			testCommitted = func(tx *Txn) {
				if tx.Number != committed+1 || !tx.committed {
					t.Errorf("txn %d committed after %d txns, committed flag %v", tx.Number, committed, tx.committed)
				}
				committed++
				records[tx], updates[tx.Upd] = true, true
				peak = max(peak, len(s.window))
			}
			t.Cleanup(func() { testCommitted = nil })
			m, err := s.Run(ops)
			if err != nil {
				t.Fatal(err)
			}
			if width != 1 && m.Aborts == 0 {
				t.Fatal("no aborts: the window does not recycle under rework")
			}
			if width > 0 && len(records) == len(ops) {
				t.Fatal("every txn had a record of its own: none was recycled")
			}
			t.Logf("%d txns, %d aborts: %d records and %d updates for a peak window of %d", len(ops), m.Aborts, len(records), len(updates), peak)
			if committed != len(ops) {
				t.Fatalf("%d of %d txns committed", committed, len(ops))
			}
			if len(records) > peak || len(updates) > peak {
				t.Errorf("the run created %d records and %d updates for a peak live window of %d", len(records), len(updates), peak)
			}
			if len(s.window) != 0 || len(s.free) != len(records) {
				t.Errorf("%d records live and %d free after the run, want 0 and %d", len(s.window), len(s.free), len(records))
			}
		})
	}
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
	reader.Upd.RecordRead(&query.ViolationRead{TGD: m, ReaderNo: 2}) // seeded through A, m's first relation
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
