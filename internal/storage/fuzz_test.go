package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"youtopia/internal/model"
)

// FuzzStoreStripes drives the striped store with randomly interleaved
// per-relation operation streams — one goroutine per relation mutating
// concurrently — and checks the final state against a serial oracle
// that applies the same per-relation streams one relation at a time.
// Operations on disjoint relations commute and each relation's stream
// preserves its order, so the two executions must agree exactly; any
// cross-stripe synchronization bug (lost index updates, torn logs,
// broken commit/abort bookkeeping) shows up as a divergence, and any
// data race trips the race detector when the fuzzer runs under -race.
//
// Each op byte decodes to (relation, action, value): inserts, content
// deletes, and inserts carrying explicit labeled nulls (explicit IDs
// keep the two executions' nulls identical). Writers are per relation
// (relation index + 1); at the end even-indexed relations' writers
// commit and odd ones abort, exercising CommitBatch and Abort across
// stripes. With collide set both stores fold every stripe index key to
// one constant, so every probe and every index removal goes through
// keys that other values share. The index audit checks each tuple
// table's pages too, and the serial store's committed cut, restored in
// descending ID order, must split pages into the same instance.
func FuzzStoreStripes(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	// Enough operations per relation to fill several pages.
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(i*97 + 5)
	}
	for _, collide := range []bool{false, true} {
		f.Add(long, collide)
		f.Add([]byte{0x00}, collide)
		f.Add([]byte{0x13, 0x57, 0x9b, 0xdf}, collide)
		f.Add([]byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xc8, 0x09, 0x4a}, collide)
		f.Add(seed, collide)
	}

	f.Fuzz(func(t *testing.T, data []byte, collide bool) {
		const nRels = 4
		schema := model.NewSchema()
		for i := 0; i < nRels; i++ {
			schema.MustAddRelation(fmt.Sprintf("F%d", i), "a", "b")
		}

		type op struct {
			action byte // 0 insert const, 1 delete content, 2 insert with null
			val    byte
		}
		streams := make([][]op, nRels)
		for _, b := range data {
			rel := int(b>>6) % nRels
			streams[rel] = append(streams[rel], op{action: (b >> 4) & 0x3, val: b & 0xf})
		}

		apply := func(st *Store, rel int, ops []op) error {
			writer := rel + 1
			relName := fmt.Sprintf("F%d", rel)
			for i, o := range ops {
				a := model.Const(fmt.Sprintf("v%d", o.val))
				var err error
				switch o.action % 3 {
				case 0:
					_, _, _, err = st.Insert(writer, model.NewTuple(relName, a, model.Const("k")))
				case 1:
					_, err = st.DeleteContent(writer, model.NewTuple(relName, a, model.Const("k")))
				case 2:
					// Explicit null IDs, unique per (relation, position),
					// identical across both executions.
					_, _, _, err = st.Insert(writer, model.NewTuple(relName, a, model.Null(int64(1000*rel+i+1))))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}

		finish := func(st *Store) {
			var commits []int
			for rel := 0; rel < nRels; rel++ {
				if rel%2 == 0 {
					commits = append(commits, rel+1)
				} else {
					st.Abort(rel + 1)
				}
			}
			st.CommitBatch(commits)
		}

		// Concurrent execution: one mutator goroutine per relation.
		conc := NewStore(schema)
		conc.collideKeys = collide
		var wg sync.WaitGroup
		errs := make([]error, nRels)
		for rel := 0; rel < nRels; rel++ {
			wg.Add(1)
			go func(rel int) {
				defer wg.Done()
				errs[rel] = apply(conc, rel, streams[rel])
			}(rel)
		}
		wg.Wait()
		for rel, err := range errs {
			if err != nil {
				t.Fatalf("concurrent relation %d: %v", rel, err)
			}
		}
		finish(conc)

		// Serial oracle: the same streams, one relation at a time.
		serial := NewStore(schema)
		serial.collideKeys = collide
		for rel := 0; rel < nRels; rel++ {
			if err := apply(serial, rel, streams[rel]); err != nil {
				t.Fatalf("serial relation %d: %v", rel, err)
			}
		}
		finish(serial)

		mustAudit(t, conc)
		mustAudit(t, serial)
		reader := 1 << 30
		if got, want := conc.Dump(reader), serial.Dump(reader); got != want {
			t.Fatalf("concurrent execution diverged from serial oracle\nconcurrent:\n%s\nserial:\n%s", got, want)
		}
		if got, want := len(conc.UncommittedWrites()), len(serial.UncommittedWrites()); got != want {
			t.Fatalf("uncommitted writes: concurrent %d, serial %d", got, want)
		}
		gs, ss := conc.Stats(), serial.Stats()
		if gs.Visible != ss.Visible {
			t.Fatalf("visible tuples: concurrent %d, serial %d", gs.Visible, ss.Visible)
		}

		// The committed cut, restored in descending ID order: every insert
		// lands in front of the table, splitting full pages, and must
		// build the same instance.
		cut, floor := serial.Epoch().Serialize()
		restored := NewStore(schema)
		restored.collideKeys = collide
		cut = slices.Clone(cut)
		slices.Reverse(cut)
		if err := restored.RestoreSnapshot(cut, floor, serial.Epoch().IDFloors()); err != nil {
			t.Fatal(err)
		}
		mustAudit(t, restored)
		if got, want := restored.Dump(reader), serial.Dump(reader); got != want {
			t.Fatalf("cut restored in descending ID order diverged\nrestored:\n%s\nserial:\n%s", got, want)
		}
	})
}
