package cc_test

import (
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/workload"
)

// noteWrites forwards to a store and notes a "write" event on the
// writer's timeline for every call that wrote, so a trace shows which
// chase steps wrote.
type noteWrites struct {
	storage.Backend
	tr *obs.Tracer
}

func (b noteWrites) note(writer int, wrote bool) {
	if wrote {
		b.tr.Note(writer, "write")
	}
}

func (b noteWrites) Insert(w int, t model.Tuple) (storage.TupleID, storage.WriteRec, bool, error) {
	id, rec, ok, err := b.Backend.Insert(w, t)
	b.note(w, ok)
	return id, rec, ok, err
}

func (b noteWrites) Delete(w int, id storage.TupleID) (storage.WriteRec, bool, error) {
	rec, ok, err := b.Backend.Delete(w, id)
	b.note(w, ok)
	return rec, ok, err
}

func (b noteWrites) DeleteContent(w int, t model.Tuple) ([]storage.WriteRec, error) {
	recs, err := b.Backend.DeleteContent(w, t)
	b.note(w, len(recs) > 0)
	return recs, err
}

func (b noteWrites) ReplaceNull(w int, x, to model.Value) ([]storage.WriteRec, error) {
	recs, err := b.Backend.ReplaceNull(w, x, to)
	b.note(w, len(recs) > 0)
	return recs, err
}

// TestConflictCheckSpanPerWritingStep: widths 0 and 2 trace Algorithm
// 4's conflict processing the same way — exactly one conflict_check
// span right after every chase step that wrote, and none after a step
// that did not.
func TestConflictCheckSpanPerWritingStep(t *testing.T) {
	u, err := workload.Build(workload.Config{
		Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8, MaxAtomsPerSide: 2,
		InitialTuples: 30, Updates: 10, InsertPct: 80, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(502)
	for _, workers := range []int{0, 2} {
		st, err := u.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		cfg := cc.Config{Tracker: cc.Coarse{}, User: simuser.New(2), MaxAbortsPerUpdate: 500, Workers: workers, Trace: tr}
		backend := noteWrites{Backend: st, tr: tr}
		if _, err := cc.NewScheduler(backend, u.Mappings, cfg).Run(ops); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		checks := 0
		for n := 1; n <= len(ops); n++ {
			wrote, afterWritingStep := false, false
			for _, e := range tr.Events(n) {
				switch e.Name {
				case "write":
					wrote = true
				case "conflict_check":
					if !afterWritingStep {
						t.Fatalf("workers %d, update %d: conflict_check not right after a step that wrote", workers, n)
					}
					checks++
				}
				if afterWritingStep && e.Name != "conflict_check" {
					t.Fatalf("workers %d, update %d: a step that wrote was followed by %q, not conflict_check", workers, n, e.Name)
				}
				afterWritingStep = e.Name == "step" && wrote
				if e.Name == "step" {
					wrote = false
				}
			}
			if afterWritingStep {
				t.Fatalf("workers %d, update %d: the last step wrote and was not checked", workers, n)
			}
		}
		if checks == 0 {
			t.Fatalf("workers %d: no conflict_check span traced", workers)
		}
	}
}
