package storage

import (
	"slices"
	"testing"

	"youtopia/internal/model"
)

// FuzzMoreSpecificProbe checks the forward chase's existence probe
// against the list it stands in for: AnyMoreSpecific(t) must equal
// len(MoreSpecificInto(t, nil)) > 0, and MoreSpecificInto must equal a
// scan of the relation, on every view a random store offers.
//
// Two bytes decode to one operation of one of four writer slots over
// two relations of arity 3: inserts and content deletes of tuples over
// {a, b, x1, x2}, null replacements, commits (the slot moves on to a
// fresh, higher writer number) and aborts (the slot's writer reruns).
// So the store holds uncommitted writers' versions, committed history,
// tombstones and recycled write-log arrays. Every live writer's log
// must still hold exactly the records its writes returned.
//
// The views are those of the initial load, of every slot's writer and
// of a reader above every writer, each plain, with a mask on one live write, under a global
// ceiling and window, and under a relation ceiling and window. The
// patterns are every tuple over {a, b, c, x1, x9}: tuples without
// constants, repeated nulls and exact duplicates of stored tuples
// among them.
func FuzzMoreSpecificProbe(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x08, 0x26, 0x01, 0x2a})
	f.Add([]byte{0x00, 0x05, 0x20, 0x3f, 0x09, 0x12, 0x04, 0x00, 0x21, 0x33, 0x0b, 0x00})
	f.Add([]byte{0x10, 0x22, 0x18, 0x2a, 0x13, 0x01, 0x11, 0x22, 0x0c, 0x00, 0x15, 0x00, 0x30, 0x3c})
	seed := make([]byte, 80)
	for i := range seed {
		seed[i] = byte(i*53 + 7)
	}
	f.Add(seed)

	alphabet := []model.Value{
		model.Const("a"), model.Const("b"), model.Const("c"),
		model.Null(1), model.Null(2), model.Null(9),
	}
	probes := []model.Value{alphabet[0], alphabet[1], alphabet[2], alphabet[3], alphabet[5]}
	rels := []string{"R", "S"}

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := model.NewSchema()
		for _, rel := range rels {
			schema.MustAddRelation(rel, "a", "b", "c")
		}
		st := NewStore(schema)
		for _, rel := range rels {
			if _, err := st.Load(model.NewTuple(rel, alphabet[0], alphabet[3], alphabet[3])); err != nil {
				t.Fatal(err)
			}
		}

		slots := [4]int{1, 2, 3, 4}
		next := 5
		logged := make(map[int]int) // live writer -> records its writes returned
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			slot := int(op>>3) % len(slots)
			w := slots[slot]
			rel := rels[int(op>>5)&1]
			tup := model.NewTuple(rel,
				alphabet[[]int{0, 1, 3, 4}[arg&3]],
				alphabet[[]int{0, 1, 3, 4}[arg>>2&3]],
				alphabet[[]int{0, 1, 3, 4}[arg>>4&3]])
			var err error
			switch op % 6 {
			case 0, 1:
				var inserted bool
				_, _, inserted, err = st.Insert(w, tup)
				if inserted {
					logged[w]++
				}
			case 2:
				var recs []WriteRec
				recs, err = st.DeleteContent(w, tup)
				logged[w] += len(recs)
			case 3:
				var recs []WriteRec
				recs, err = st.ReplaceNull(w, alphabet[3+int(arg&1)], alphabet[2+3*int(arg>>1&1)])
				logged[w] += len(recs)
			case 4:
				err = st.Commit(w)
				delete(logged, w)
				slots[slot] = next
				next++
			case 5:
				st.Abort(w)
				delete(logged, w)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for w, n := range logged {
			if got := len(st.WritesOf(w)); got != n {
				t.Fatalf("writer %d logs %d records, its writes returned %d", w, got, n)
			}
		}

		seq := st.CurrentSeq()
		var views []*Snapshot
		for _, reader := range append([]int{0, next}, slots[:]...) {
			plain := st.Snap(reader)
			views = append(views, plain, ceiled(plain, seq/2), windowed(plain, seq/3, 2*seq/3))
			if recs := st.WritesOf(reader); len(recs) > 0 {
				masked := *plain
				masked.SetMask(reader, recs[len(recs)/2].Seq)
				views = append(views, &masked)
			}
			views = append(views, ceiled(plain, seq/3), windowed(plain, seq/2, seq))
		}

		type row struct {
			id   TupleID
			vals []model.Value
		}
		pattern := make([]model.Value, 3)
		for _, sn := range views {
			for _, rel := range rels {
				var visible []row
				sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
					visible = append(visible, row{id, vals})
					return true
				})
				for k := 0; k < len(probes)*len(probes)*len(probes); k++ {
					pattern[0] = probes[k%len(probes)]
					pattern[1] = probes[k/len(probes)%len(probes)]
					pattern[2] = probes[k/len(probes)/len(probes)]
					pt := model.Tuple{Rel: rel, Vals: pattern}
					var want []TupleID
					for _, r := range visible {
						if model.MoreSpecificVals(r.vals, pattern) && !slices.Equal(r.vals, pattern) {
							want = append(want, r.id)
						}
					}
					got := sn.MoreSpecificInto(pt, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("reader %d: MoreSpecificInto(%s) = %v, scan finds %v", sn.Reader(), pt, got, want)
					}
					if exists := sn.AnyMoreSpecific(pt); exists != (len(got) > 0) {
						t.Fatalf("reader %d: AnyMoreSpecific(%s) = %v, MoreSpecificInto = %v", sn.Reader(), pt, exists, got)
					}
				}
			}
		}
	})
}
