package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"youtopia/internal/model"
)

// FuzzEpochSnapshot hammers the committed read paths: per-relation
// mutator goroutines apply fuzz-decoded operation streams (inserts,
// content deletes, paired inserts that put one key into the stream's
// relation AND its partner relation, commits of batch-numbered writer
// generations — multi-stripe batches once a generation holds a paired
// insert) while reader goroutines continuously take committed cuts and
// read through a committed-state snapshot. The records of every cut
// must be a cut no batch straddles: a relation holds exactly as many
// paired keys as its partner holds tuples. Under -race this is the
// memory-safety proof for both read paths; the final-state check
// proves no interleaving leaves a wrong committed view — after
// quiescing and aborting the uncommitted writers, the committed-state
// snapshot must equal a serial locked oracle that applied the same
// streams.
//
// Writers are (relation index + 1) + 100*generation, a fresh writer
// per commit so committed data accretes across the run and cuts have
// real churn to track.
func FuzzEpochSnapshot(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x57, 0x9b, 0xdf, 0x31, 0x75})
	f.Add([]byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xc8, 0x09, 0x4a, 0x3f, 0x7f})
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*53 + 7)
	}
	f.Add(seed)
	// Every relation alternates paired inserts with commits, so readers
	// race a steady stream of two-stripe batches.
	paired := make([]byte, 0, 192)
	for i := 0; i < 24; i++ {
		for rel := 0; rel < 4; rel++ {
			paired = append(paired, byte(rel<<6|0x30|i%16), byte(rel<<6|0x20))
		}
	}
	f.Add(paired)

	f.Fuzz(func(t *testing.T, data []byte) {
		const nRels = 4
		schema := model.NewSchema()
		rels := make([]string, nRels)
		partners := make([]string, nRels)
		for i := range rels {
			rels[i] = fmt.Sprintf("F%d", i)
			partners[i] = fmt.Sprintf("P%d", i)
			schema.MustAddRelation(rels[i], "a", "b")
			schema.MustAddRelation(partners[i], "a", "b")
		}

		type op struct {
			action byte // 0 insert, 1 delete content, 2 commit current writer, 3 paired insert
			val    byte
		}
		streams := make([][]op, nRels)
		for _, b := range data {
			rel := int(b>>6) % nRels
			streams[rel] = append(streams[rel], op{action: (b >> 4) & 0x3, val: b & 0xf})
		}

		// apply runs one relation's stream; each commit op commits the
		// relation's current writer generation and starts the next.
		apply := func(st *Store, rel int, ops []op) error {
			gen := 0
			relName := rels[rel]
			for _, o := range ops {
				writer := rel + 1 + 100*gen
				a := model.Const(fmt.Sprintf("v%d", o.val))
				var err error
				switch o.action {
				case 0:
					_, _, _, err = st.Insert(writer, model.NewTuple(relName, a, model.Const("k")))
				case 1:
					_, err = st.DeleteContent(writer, model.NewTuple(relName, a, model.Const("k")))
				case 2:
					err = st.Commit(writer)
					gen++
				case 3:
					// Never deleted, so the two relations stay in step.
					if _, _, _, err = st.Insert(writer, model.NewTuple(relName, a, model.Const("p"))); err == nil {
						_, _, _, err = st.Insert(writer, model.NewTuple(partners[rel], a, model.Const("p")))
					}
				}
				if err != nil {
					return err
				}
			}
			// Leave the last generation uncommitted: the committed view
			// must exclude it, the oracle aborts it.
			return nil
		}

		abortTails := func(st *Store) {
			for rel := 0; rel < nRels; rel++ {
				gens := 0
				for _, o := range streams[rel] {
					if o.action == 2 {
						gens++
					}
				}
				st.Abort(rel + 1 + 100*gens)
			}
		}

		conc := NewStore(schema)
		var stop atomic.Bool
		var wg sync.WaitGroup
		// Readers: take committed cuts and check them, and read the live
		// stores through a committed-state snapshot the whole time the
		// mutators run; -race checks the rest.
		pconst := model.Const("p")
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				commits := int64(0)
				for !stop.Load() {
					ep := conc.Epoch()
					if c := ep.Commits(); c < commits {
						t.Errorf("cut Commits ran backwards: %d after %d", c, commits)
					} else {
						commits = c
					}
					tuples, _ := ep.Serialize()
					live := make(map[string]int)   // relation -> live tuples
					paired := make(map[string]int) // relation -> live paired keys
					for _, ct := range tuples {
						if ct.Deleted {
							continue
						}
						live[ct.Rel]++
						if ct.Vals[1] == pconst {
							paired[ct.Rel]++
						}
					}
					sn := conc.EpochSnap()
					for i, rel := range rels {
						if p, q := paired[rel], live[partners[i]]; p != q {
							t.Errorf("torn cut: %s holds %d paired keys, %s holds %d", rel, p, partners[i], q)
						}
						sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
							if len(vals) != 2 {
								t.Errorf("committed-state scan of %s: tuple %d has %d values", rel, id, len(vals))
								return false
							}
							return true
						})
						countRel(sn, rel)
						sn.ProbeRows(rel, 0, model.Const("v1"), nil, nil)
					}
					sn.VisibleFacts()
				}
			}()
		}
		errs := make([]error, nRels)
		var mwg sync.WaitGroup
		for rel := 0; rel < nRels; rel++ {
			mwg.Add(1)
			go func(rel int) {
				defer mwg.Done()
				errs[rel] = apply(conc, rel, streams[rel])
			}(rel)
		}
		mwg.Wait()
		stop.Store(true)
		wg.Wait()
		for rel, err := range errs {
			if err != nil {
				t.Fatalf("concurrent relation %d: %v", rel, err)
			}
		}

		serial := NewStore(schema)
		for rel := 0; rel < nRels; rel++ {
			if err := apply(serial, rel, streams[rel]); err != nil {
				t.Fatalf("serial relation %d: %v", rel, err)
			}
		}

		// The final committed view (tails still uncommitted) must equal
		// the oracle's committed instance with its tails aborted —
		// committed content only, regardless of interleaving.
		abortTails(serial)
		got := conc.EpochSnap().VisibleFacts()
		want := serial.Snap(1 << 30).VisibleFacts()
		if len(got) != len(want) {
			t.Fatalf("committed view relations %d, oracle %d\n%v\nvs\n%v", len(got), len(want), got, want)
		}
		for rel, ts := range want {
			seen := make(map[string]bool, len(got[rel]))
			for _, tu := range got[rel] {
				seen[tu.Key()] = true
			}
			if len(got[rel]) != len(ts) {
				t.Fatalf("relation %s: committed view %d tuples, oracle %d", rel, len(got[rel]), len(ts))
			}
			for _, tu := range ts {
				if !seen[tu.Key()] {
					t.Fatalf("relation %s: oracle tuple %s missing from committed view", rel, tu.Key())
				}
			}
		}
	})
}
