package query_test

import (
	"fmt"
	"slices"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// aliasWatch decorates a store for TestReleasedReadsAreNeverConsulted.
// Through aliasTracker it learns every read charged to a txn, in the
// order its log stores them. Before every write, abort and commit, and
// before every cascade, it holds each live txn's stored reads — what
// the conflict checks, cascades and removal checks consult next — to
// the reads charged to that txn's current attempt, each carrying the
// txn's number. A read leaves the watch when its txn aborts, is
// cancelled or commits. Single-violation answers, which a read holds by
// reference, must keep their contents for the whole run.
type aliasWatch struct {
	storage.Backend
	t *testing.T
	// txns are the txns with reads charged since their last abort or
	// commit, logged those reads in order, and owner the txn each live
	// read is charged to.
	txns   map[int]*cc.Txn
	logged map[int][]query.ReadQuery
	owner  map[query.ReadQuery]int
	held   []heldAnswer

	charges, events int
	records         map[query.ReadQuery]bool
}

// heldAnswer is a single-violation answer a read held by reference,
// with copies of its contents when the read was stored.
type heldAnswer struct {
	read       string
	vals, wals []model.Value
	ids, wids  []storage.TupleID
}

func (w *aliasWatch) charge(u *cc.Txn, q query.ReadQuery) {
	if n, ok := w.owner[q]; ok {
		w.t.Fatalf("txn %d got read %s while txn %d stores it", u.Number, q, n)
	}
	if q.Reader() != u.Number {
		w.t.Fatalf("txn %d got read %s of reader %d", u.Number, q, q.Reader())
	}
	w.txns[u.Number] = u
	w.logged[u.Number] = append(w.logged[u.Number], q)
	w.owner[q] = u.Number
	w.records[q] = true
	w.charges++
	if vq, ok := q.(*query.ViolationRead); ok {
		vals, ids, owned := vq.AnswerArrays()
		if !owned && len(ids) > 0 {
			w.held = append(w.held, heldAnswer{read: q.String(), vals: vals, wals: slices.Clone(vals), ids: ids, wids: slices.Clone(ids)})
		}
	}
}

// check holds every watched txn's stored reads to the reads charged to
// it.
func (w *aliasWatch) check(event string) {
	w.events++
	for n, tx := range w.txns {
		var log []query.ReadQuery
		if tx.Upd != nil {
			log = tx.Upd.StoredReads()
		}
		want := w.logged[n]
		if len(log) != len(want) {
			w.t.Fatalf("%s: txn %d stores %d reads, %d were charged to it", event, n, len(log), len(want))
		}
		for i, q := range log {
			if q != want[i] || q.Reader() != n {
				w.t.Fatalf("%s: txn %d's read %d is %s of reader %d, charged %s", event, n, i, q, q.Reader(), want[i])
			}
		}
	}
}

// checkHeld fails when a single-violation answer held by reference
// changed.
func (w *aliasWatch) checkHeld(event string) {
	for _, h := range w.held {
		if !slices.Equal(h.vals, h.wals) || !slices.Equal(h.ids, h.wids) {
			w.t.Fatalf("%s: the answer of %s changed from %v %v to %v %v", event, h.read, h.wals, h.wids, h.vals, h.ids)
		}
	}
}

// forget ends the watch of a txn's current attempt.
func (w *aliasWatch) forget(n int) {
	for _, q := range w.logged[n] {
		delete(w.owner, q)
	}
	delete(w.logged, n)
	delete(w.txns, n)
}

func (w *aliasWatch) Insert(writer int, t model.Tuple) (storage.TupleID, storage.WriteRec, bool, error) {
	w.check("write")
	return w.Backend.Insert(writer, t)
}

func (w *aliasWatch) Delete(writer int, id storage.TupleID) (storage.WriteRec, bool, error) {
	w.check("write")
	return w.Backend.Delete(writer, id)
}

func (w *aliasWatch) DeleteContent(writer int, t model.Tuple) ([]storage.WriteRec, error) {
	w.check("write")
	return w.Backend.DeleteContent(writer, t)
}

func (w *aliasWatch) ReplaceNull(writer int, x, to model.Value) ([]storage.WriteRec, error) {
	w.check("write")
	return w.Backend.ReplaceNull(writer, x, to)
}

func (w *aliasWatch) Abort(writer int) {
	w.check("abort")
	w.Backend.Abort(writer)
	w.forget(writer)
}

func (w *aliasWatch) CommitBatchAsync(writers []int) (storage.CommitAck, error) {
	w.check("commit")
	w.checkHeld("commit")
	ack, err := w.Backend.CommitBatchAsync(writers)
	for _, n := range writers {
		w.forget(n)
	}
	return ack, err
}

// aliasTracker charges every read to the watch before the wrapped
// tracker sees it, and checks the watch before every cascade.
type aliasTracker struct {
	cc.Tracker
	w *aliasWatch
}

func (a aliasTracker) OnRead(st storage.Backend, u *cc.Txn, q query.ReadQuery) {
	a.w.charge(u, q)
	a.Tracker.OnRead(st, u, q)
}

func (a aliasTracker) Cascade(st storage.Backend, aborted *cc.Txn, live []*cc.Txn) []*cc.Txn {
	a.w.check("cascade")
	return a.Tracker.Cascade(st, aborted, live)
}

// TestReleasedReadsAreNeverConsulted runs a randomized universe whose
// windows abort, cascade and rerun under NAIVE, COARSE and PRECISE at
// widths 0, 1 and 2, and once in inbox mode with a deadline that
// cancels parked updates. A released read goes back to the engine's
// read pool and is refilled for a later read, so a read that a
// conflict check, cascade or removal check consults must still be one
// its txn's current attempt stored, carrying that txn's number (a
// released record reads as query.ReleasedReader); no record may be
// handed to a read while a log stores it; and no single-violation
// answer, held by reference, may be written. Every run leaves the
// serial execution's dump, and records are reused.
func TestReleasedReadsAreNeverConsulted(t *testing.T) {
	u, err := workload.Build(workload.Config{
		Relations: 12, MinArity: 1, MaxArity: 4, Constants: 8, Mappings: 16,
		MaxAtomsPerSide: 3, InitialTuples: 60, Updates: 40, InsertPct: 80, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(4)
	ref, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Execute(ref, u.Mappings, ops, simuser.New(4)); err != nil {
		t.Fatal(err)
	}
	want := ref.Dump(1 << 30)
	run := func(t *testing.T, tracker cc.Tracker, workers int, box *inbox.Box) cc.Metrics {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		w := &aliasWatch{Backend: st, t: t, txns: map[int]*cc.Txn{}, logged: map[int][]query.ReadQuery{},
			owner: map[query.ReadQuery]int{}, records: map[query.ReadQuery]bool{}}
		cfg := cc.Config{Tracker: aliasTracker{tracker, w}, User: simuser.New(4), Workers: workers, MaxAbortsPerUpdate: 1000}
		if box != nil {
			cfg.Inbox, cfg.InboxPolicy = box, inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAbort}
		}
		m, err := cc.NewScheduler(w, u.Mappings, cfg).Run(ops)
		if err != nil {
			t.Fatal(err)
		}
		w.checkHeld("end")
		if box == nil && st.Dump(1<<30) != want {
			t.Fatal("the run's dump differs from the serial execution's")
		}
		reused := w.charges - len(w.records)
		t.Logf("%d aborts, %d cancelled; %d reads charged in %d records, %d held answers, %d checks",
			m.Aborts, m.Cancelled, w.charges, len(w.records), len(w.held), w.events)
		if reused == 0 || len(w.held) == 0 || w.events == 0 {
			t.Fatal("the run does not exercise what the test checks")
		}
		return m
	}
	for _, tracker := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
		for _, workers := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/width=%d", tracker.Name(), workers), func(t *testing.T) {
				m := run(t, tracker, workers, nil)
				if workers != 1 && m.Aborts == 0 {
					t.Fatal("the run aborts nothing")
				}
			})
		}
	}
	t.Run("deadline-cancel", func(t *testing.T) {
		if m := run(t, cc.Coarse{}, 0, inbox.NewBox()); m.Cancelled == 0 {
			t.Fatal("the deadline cancelled nothing")
		}
	})
}
