package cc

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// logScanWriters is the reference for coarseWriters: COARSE's charge
// computed as it was before writer sets, by copying every uncommitted
// write record the read could match and keeping the writers of those
// a violation read ranges over, or whose write changes a structural
// read's answer. The result is sorted and compacted.
func logScanWriters(st storage.Backend, reader int, q query.ReadQuery) []int {
	var log []storage.WriteRec
	switch r := q.(type) {
	case *query.ContentRead:
		log = st.AppendUncommittedWrites(nil, r.Rel)
	case *query.MoreSpecificRead:
		log = st.AppendUncommittedWrites(nil, r.Rel)
	default:
		rels := q.Relations()
		if rels == nil {
			log = st.AppendUncommittedWrites(nil, "")
		}
		for _, rel := range rels {
			log = st.AppendUncommittedWrites(log, rel)
		}
	}
	violation := q.Kind() == query.KindViolation
	var chk query.Checker
	var out []int
	for _, w := range log {
		if violation || (w.Writer != reader && q.AffectedBy(&chk, st, w)) {
			out = append(out, w.Writer)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// WriterSetAudit counts what an audited COARSE compared.
type WriterSetAudit struct {
	mu sync.Mutex
	// Reads counts the compared reads per kind, and Charged those
	// whose writer set was not empty.
	Reads, Charged map[query.Kind]int
	first          string
}

// Mismatch returns the first read whose writer set differed from the
// log scan's, or "".
func (a *WriterSetAudit) Mismatch() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.first
}

// AuditCoarse returns a COARSE tracker that, on every OnRead, also
// compares the writer set it charges (before Txn.addDep filters it)
// with logScanWriters', and the audit it reports into. Reads run
// inside a step, which no write or commit overlaps, so both scans see
// one write log.
func AuditCoarse() (Tracker, *WriterSetAudit) {
	a := &WriterSetAudit{Reads: map[query.Kind]int{}, Charged: map[query.Kind]int{}}
	return auditedCoarse{a}, a
}

type auditedCoarse struct{ a *WriterSetAudit }

func (auditedCoarse) Name() string { return "COARSE" }

func (t auditedCoarse) OnRead(st storage.Backend, u *Txn, q query.ReadQuery) {
	got := u.sc.coarseWriters(nil, st, u.Number, q)
	slices.Sort(got)
	got = slices.Compact(got)
	want := logScanWriters(st, u.Number, q)
	t.a.mu.Lock()
	t.a.Reads[q.Kind()]++
	if len(want) > 0 {
		t.a.Charged[q.Kind()]++
	}
	if !slices.Equal(got, want) && t.a.first == "" {
		t.a.first = fmt.Sprintf("update %d, %s: writer set %v, log scan %v", u.Number, q, got, want)
	}
	t.a.mu.Unlock()
	Coarse{}.OnRead(st, u, q)
}

func (auditedCoarse) Cascade(st storage.Backend, aborted *Txn, live []*Txn) []*Txn {
	return Coarse{}.Cascade(st, aborted, live)
}

// TestCoarseOnReadAllocFree pins that a warm COARSE OnRead of each of
// the four read kinds allocates nothing: the writers are scanned into
// the scratch's buffer through its one matcher, and every writer
// charged is already a dependency.
func TestCoarseOnReadAllocFree(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x", "y")
	m := tgd.New("m", []tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"), tgd.V("y"))})
	if err := m.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	a, b, x := model.Const("a"), model.Const("b"), model.Null(1)
	for _, w := range []struct {
		writer int
		t      model.Tuple
	}{
		{2, model.NewTuple("A", a)},
		{3, model.NewTuple("B", a, x)},
		{3, model.NewTuple("A", b)},
		{6, model.NewTuple("B", b, x)}, // the reader's own write
	} {
		if _, _, _, err := st.Insert(w.writer, w.t); err != nil {
			t.Fatal(err)
		}
	}
	viol, _ := query.NewViolationRead(query.NewEngine(st.Snap(6)), m, "A", []model.Value{a}, query.SeedLHS)
	for _, c := range []struct {
		q    query.ReadQuery
		want []int
	}{
		{viol, []int{2, 3, 6}},
		{&query.ContentRead{Rel: "A", Vals: []model.Value{a}, ReaderNo: 6}, []int{2}},
		{&query.MoreSpecificRead{Rel: "B", Pattern: []model.Value{a, model.Null(9)}, ReaderNo: 6}, []int{3}},
		{&query.NullOccRead{Null: x, ReaderNo: 6}, []int{3}},
	} {
		u := &Txn{Upd: chase.NewUpdate(6, chase.Op{}), Number: 6, sc: new(stepScratch)}
		Coarse{}.OnRead(st, u, c.q) // warm: the matcher, the buffer, the deps array
		if got := logScanWriters(st, 6, c.q); !slices.Equal(got, c.want) {
			t.Fatalf("%s: log scan charges %v, fixture wants %v", c.q, got, c.want)
		}
		for _, w := range c.want {
			if w != 6 && !u.dependsOn(w) {
				t.Fatalf("%s: deps %v miss writer %d", c.q, u.deps, w)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { Coarse{}.OnRead(st, u, c.q) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per warm OnRead, want 0", c.q.Kind(), allocs)
		}
	}
}
