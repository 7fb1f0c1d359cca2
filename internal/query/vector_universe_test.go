package query_test

import (
	"slices"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// vectorWatch decorates a store for TestReadSeqMatchesVectorOnUniverse.
// It keeps each relation's highest applied sequence number, from the
// loads and writes it passes on, so that a read captured through
// captureTracker gets the read vector it would have recorded. After
// every write it holds every live violation read's verdict on each
// record to the vector's, and before and after every abort its removal
// verdict. A read leaves the watch when its reader commits or aborts.
type vectorWatch struct {
	storage.Backend
	t      *testing.T
	relSeq map[string]int64
	reads  []capturedRead
	chk    query.Checker

	writes, removals, split int
	verdicts                map[bool]int
}

// capturedRead is a stored read with its read vector and the rendering
// of its answer when it was stored.
type capturedRead struct {
	q      *query.ViolationRead
	vec    []int64
	answer string
}

func (w *vectorWatch) capture(q *query.ViolationRead) {
	rels := q.TGD.Relations()
	vec := make([]int64, len(rels))
	for i, rel := range rels {
		vec[i] = w.relSeq[rel]
	}
	w.reads = append(w.reads, capturedRead{q: q, vec: vec, answer: q.RecordedCanon()})
}

// wrote checks the records a write returned against every live read.
func (w *vectorWatch) wrote(recs ...storage.WriteRec) {
	for _, rec := range recs {
		w.relSeq[rec.Rel] = rec.Seq
		for _, r := range w.reads {
			got := r.q.AffectedBy(&w.chk, w.Backend, rec)
			if want := query.VectorAffectedBy(r.q, r.vec, w.Backend, rec); got != want {
				w.t.Fatalf("read %s (vector %v), write %v: read sequence says %v, read vector %v", r.q, r.vec, rec, got, want)
			}
			if i := slices.Index(r.q.TGD.Relations(), rec.Rel); i >= 0 && r.vec[i] < r.q.ReadSeq && rec.Writer <= r.q.ReaderNo {
				w.split++
			}
			w.writes++
			w.verdicts[got]++
		}
	}
}

// removed checks a removed log against every live read.
func (w *vectorWatch) removed(recs []storage.WriteRec) {
	for _, r := range w.reads {
		got := r.q.AffectedByRemoval(&w.chk, w.Backend, recs)
		if want := query.VectorAffectedByRemoval(r.q, r.vec, w.Backend, recs); got != want {
			w.t.Fatalf("read %s (vector %v), removal of %d writes: read sequence says %v, read vector %v", r.q, r.vec, len(recs), got, want)
		}
		w.removals++
	}
}

// drop ends the watch of the readers' reads, after checking that no
// answer changed in place since it was stored.
func (w *vectorWatch) drop(readers ...int) {
	w.reads = slices.DeleteFunc(w.reads, func(r capturedRead) bool {
		if !slices.Contains(readers, r.q.ReaderNo) {
			return false
		}
		if got := r.q.RecordedCanon(); got != r.answer {
			w.t.Fatalf("read %s: stored answer %q changed to %q", r.q, r.answer, got)
		}
		return true
	})
}

func (w *vectorWatch) Load(t model.Tuple) (storage.TupleID, error) {
	id, err := w.Backend.Load(t)
	w.relSeq[t.Rel] = w.Backend.CurrentSeq()
	return id, err
}

func (w *vectorWatch) Insert(writer int, t model.Tuple) (storage.TupleID, storage.WriteRec, bool, error) {
	id, rec, inserted, err := w.Backend.Insert(writer, t)
	if inserted {
		w.wrote(rec)
	}
	return id, rec, inserted, err
}

func (w *vectorWatch) Delete(writer int, id storage.TupleID) (storage.WriteRec, bool, error) {
	rec, ok, err := w.Backend.Delete(writer, id)
	if ok {
		w.wrote(rec)
	}
	return rec, ok, err
}

func (w *vectorWatch) DeleteContent(writer int, t model.Tuple) ([]storage.WriteRec, error) {
	recs, err := w.Backend.DeleteContent(writer, t)
	w.wrote(recs...)
	return recs, err
}

func (w *vectorWatch) ReplaceNull(writer int, x, to model.Value) ([]storage.WriteRec, error) {
	recs, err := w.Backend.ReplaceNull(writer, x, to)
	w.wrote(recs...)
	return recs, err
}

func (w *vectorWatch) Abort(writer int) {
	recs := w.Backend.WritesOf(writer)
	w.removed(recs)
	w.Backend.Abort(writer)
	w.removed(recs)
	w.drop(writer)
}

func (w *vectorWatch) Commit(writer int) error {
	w.drop(writer)
	return w.Backend.Commit(writer)
}

func (w *vectorWatch) CommitBatch(writers []int) error {
	w.drop(writers...)
	return w.Backend.CommitBatch(writers)
}

func (w *vectorWatch) CommitBatchAsync(writers []int) (storage.CommitAck, error) {
	w.drop(writers...)
	return w.Backend.CommitBatchAsync(writers)
}

// captureTracker is a tracker that hands every violation read to the
// watch before charging it as the wrapped tracker does.
type captureTracker struct {
	cc.Tracker
	w *vectorWatch
}

func (c captureTracker) OnRead(st storage.Backend, u *cc.Txn, q query.ReadQuery) {
	if vq, ok := q.(*query.ViolationRead); ok {
		c.w.capture(vq)
	}
	c.Tracker.OnRead(st, u, q)
}

// TestReadSeqMatchesVectorOnUniverse is TestReadSeqMatchesVector on a
// scheduler run: over a randomized universe whose window aborts,
// cascades and reruns, every live violation read's verdict on every
// write and every abort's removed log is the verdict its per-relation
// read vector gives, the run stays serial-equivalent, and no stored
// answer changes in place while its read is live.
func TestReadSeqMatchesVectorOnUniverse(t *testing.T) {
	u, err := workload.Build(workload.Config{
		Relations: 12, MinArity: 1, MaxArity: 4, Constants: 8, Mappings: 16,
		MaxAtomsPerSide: 3, InitialTuples: 60, Updates: 40, InsertPct: 80, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &vectorWatch{Backend: storage.NewStore(u.Schema), t: t, relSeq: map[string]int64{}, verdicts: map[bool]int{}}
	for _, tu := range u.Initial {
		if _, err := w.Load(tu); err != nil {
			t.Fatal(err)
		}
	}
	ops := u.GenOpsSeeded(4)
	m, err := cc.NewScheduler(w, u.Mappings, cc.Config{
		Tracker: captureTracker{cc.Precise{}, w}, User: simuser.New(4), MaxAbortsPerUpdate: 1000,
	}).Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.NewScheduler(ref, u.Mappings, cc.Config{Tracker: cc.Precise{}, User: simuser.New(4), Workers: 1}).Run(ops); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Backend.Dump(1<<30), ref.Dump(1<<30); got != want {
		t.Fatalf("the watched run left\n%s\nthe width-1 run\n%s", got, want)
	}
	t.Logf("%d write checks (%d with a relation ceiling below the read sequence), %d removal checks, verdicts %v; %d aborts",
		w.writes, w.split, w.removals, w.verdicts, m.Aborts)
	if m.Aborts == 0 || w.removals == 0 || w.split == 0 || w.verdicts[true] == 0 || w.verdicts[false] == 0 {
		t.Fatal("the run does not exercise what the test compares")
	}
}
