package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"youtopia/internal/model"
)

// TestCommitTrimsHistory: once no writer is live, a commit leaves one
// version per tuple — a modified tuple keeps only its newest content,
// a deleted one leaves the store with its index entries — and the
// superseded values are gone from every index.
func TestCommitTrimsHistory(t *testing.T) {
	s := model.NewSchema()
	s.MustAddRelation("R", "a", "b")
	st := testStore(s)
	x := model.Null(7)
	keep, _ := st.Load(model.NewTuple("R", model.Const("k"), x))
	gone, _ := st.Load(model.NewTuple("R", model.Const("g"), model.Const("h")))
	if _, err := st.ReplaceNull(1, x, model.Const("c")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Delete(1, gone); !ok {
		t.Fatal("delete found nothing")
	}
	if got := st.Stats(); got.Versions != 4 {
		t.Fatalf("before commit: %+v, want 4 versions", got)
	}
	if err := st.Commit(1); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got != (Stats{Tuples: 1, Versions: 1, Visible: 1}) {
		t.Fatalf("after commit: %+v, want one tuple with one version", got)
	}
	mustAudit(t, st)
	sn := st.Snap(maxReader)
	if ids := sn.TuplesWithNull(x); len(ids) != 0 || len(st.appendNullIDs(nil, x)) != 0 {
		t.Fatalf("replaced null still indexed: %v", st.appendNullIDs(nil, x))
	}
	if ids := indexIDs(st, "R", 0, model.Const("g")); slices.Contains(ids, gone) {
		t.Fatalf("deleted tuple still indexed: %v", ids)
	}
	if vals, ok := sn.Get(keep); !ok || vals[1] != model.Const("c") {
		t.Fatalf("kept tuple reads %v, %v", vals, ok)
	}
	if _, ok := st.stripeOf(gone).find(gone); ok {
		t.Fatal("deleted tuple is still a member of its relation")
	}
}

// TestTrimWaitsForLiveReaders: a commit whose history a live writer may
// still read through a read vector captured before it — that writer
// wrote first — defers the trim; the next batch drains it once the
// writer is gone, and an abort of the last live writer drains it too.
func TestTrimWaitsForLiveReaders(t *testing.T) {
	for _, finish := range []string{"commit", "abort"} {
		t.Run(finish, func(t *testing.T) {
			s := model.NewSchema()
			s.MustAddRelation("R", "a")
			s.MustAddRelation("S", "a")
			st := testStore(s)
			id, _ := st.Load(model.NewTuple("R", model.Const("r")))
			if _, _, _, err := st.Insert(2, model.NewTuple("S", model.Const("s"))); err != nil {
				t.Fatal(err)
			}
			ceil := st.CurrentSeq()
			if _, ok, _ := st.Delete(1, id); !ok {
				t.Fatal("delete found nothing")
			}
			if err := st.Commit(1); err != nil {
				t.Fatal(err)
			}
			// Writer 2 wrote before the delete: its view as of then
			// still holds the tuple.
			if _, ok := ceiled(st.Snap(2), ceil).Get(id); !ok {
				t.Fatal("trimmed history a live writer can read")
			}
			mustAudit(t, st)
			if len(st.byIdx[0].pending) != 1 {
				t.Fatalf("pending %v, want the deleted tuple", st.byIdx[0].pending)
			}
			if finish == "commit" {
				if err := st.Commit(2); err != nil {
					t.Fatal(err)
				}
			} else {
				st.Abort(2)
			}
			mustAudit(t, st)
			if _, ok := st.byIdx[0].find(id); ok || len(st.pendingIn) != 0 {
				t.Fatalf("tuple survived the %s of the last live writer (pending in %v)", finish, st.pendingIn)
			}
		})
	}
}

// FuzzHorizonTrim is the differential check of the horizon rule: two
// stores take the same random interleaving of inserts, deletes by
// content and by ID, null replacements, writer-0 writes, commits (out
// of priority order too, and in batches) and aborts; one trims, the
// other never does. After every operation both must return the same
// write records and give identical answers to every reader the rule
// admits — each uncommitted writer and a fresh one above every writer
// so far, through plain views, ceilings and per-relation ceilings at
// or above the horizon, windows over them, and masks of live writes.
//
// Writers get ascending numbers. A writer may start writing only above
// every committed writer, as the priority-ordered commit frontier
// guarantees; one without live writes below a committed writer is
// retired, and never writes or reads again. Writer 0 writes only before
// the first commit, as bootstrap loads do.
func FuzzHorizonTrim(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x08, 0x12, 0x04, 0x00, 0x01, 0x05})
	f.Add([]byte{0x00, 0x10, 0x08, 0x21, 0x0b, 0x03, 0x0c, 0x02, 0x06, 0x00, 0x04, 0x00, 0x0d, 0x01})
	f.Add([]byte{0x07, 0x11, 0x00, 0x22, 0x09, 0x13, 0x02, 0x40, 0x0c, 0x01, 0x04, 0x00, 0x07, 0x95, 0x05, 0xff})
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i*53 + 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := model.NewSchema()
		schema.MustAddRelation("A", "x", "y")
		schema.MustAddRelation("B", "x", "y")
		rels := []string{"A", "B"}
		trimmed, full := NewStore(schema), NewStore(schema)
		full.noTrim = true
		stores := []*Store{trimmed, full}

		value := func(b byte) model.Value {
			if b&4 != 0 {
				return model.Null(int64(b&3) + 1)
			}
			return model.Const(fmt.Sprintf("c%d", b&3))
		}
		next := 1 // the next writer number
		committed := map[int]bool{}
		retired := map[int]bool{}
		maxCommitted := 0
		// candidates lists the writers that may still write and read,
		// ascending; the fresh writer next is always the last one.
		candidates := func() []int {
			var out []int
			for w := 1; w < next; w++ {
				if !committed[w] && !retired[w] {
					out = append(out, w)
				}
			}
			return append(out, next)
		}
		live := func(w int) bool {
			trimmed.rlock()
			defer trimmed.runlock()
			_, ok := trimmed.writerStripes[w]
			return ok
		}
		retire := func() {
			for w := 1; w < next; w++ {
				if !committed[w] && w < maxCommitted && !live(w) {
					retired[w] = true
				}
			}
		}
		commit := func(ws []int) {
			for _, st := range stores {
				if err := st.CommitBatch(ws); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range ws {
				committed[w] = true
				maxCommitted = max(maxCommitted, w)
			}
		}
		// both runs one operation on each store and requires the same
		// rendered outcome.
		both := func(what string, op func(st *Store) string) {
			got, want := op(trimmed), op(full)
			if got != want {
				t.Fatalf("%s: trimming store returned %s, the untrimmed one %s", what, got, want)
			}
		}
		recs := func(rs []WriteRec, err error) string {
			if err != nil {
				return err.Error()
			}
			return fmt.Sprint(rs)
		}

		for i := 0; i+1 < len(data); i += 2 {
			b0, b1 := data[i], data[i+1]
			cands := candidates()
			w := cands[int(b0>>3)%len(cands)]
			rel := rels[b1>>7]
			tuple := model.NewTuple(rel, value(b1), value(b1>>3))
			// Deletes by ID pick from the untrimmed store's members, which
			// include every ID the trimming store dropped.
			var id TupleID
			if ids := full.stripes[rel].ids; len(ids) > 0 {
				id = ids[int(b1>>1)%len(ids)]
			}
			if w == next && b0&7 <= 3 {
				next++
			}
			switch b0 & 7 {
			case 0:
				both("insert", func(st *Store) string {
					id, rec, ok, err := st.Insert(w, tuple)
					return fmt.Sprint(id, rec, ok, err)
				})
			case 1:
				both("delete content", func(st *Store) string { return recs(st.DeleteContent(w, tuple)) })
			case 2:
				both("delete", func(st *Store) string {
					rec, ok, err := st.Delete(w, id)
					return fmt.Sprint(rec, ok, err)
				})
			case 3:
				x, to := model.Null(int64(b1&3)+1), value(b1>>2)
				if x == to {
					to = model.Const("c9")
				}
				both("replace null", func(st *Store) string { return recs(st.ReplaceNull(w, x, to)) })
			case 4, 5:
				// Commit one writer, or every candidate whose bit is set.
				ws := []int{w}
				if b0&7 == 5 {
					ws = ws[:0]
					for k, c := range cands[:len(cands)-1] {
						if b1>>(k%8)&1 != 0 {
							ws = append(ws, c)
						}
					}
				}
				if len(ws) > 0 && ws[0] != next {
					commit(ws)
				}
			case 6:
				if w != next {
					for _, st := range stores {
						st.Abort(w)
					}
				}
			case 7:
				// Writer 0 reads at priority 0, below every committed
				// writer; it loads only before the first commit.
				if maxCommitted > 0 {
					break
				}
				if b1&1 == 0 {
					both("load", func(st *Store) string {
						id, err := st.Load(tuple)
						return fmt.Sprint(id, err)
					})
				} else {
					both("writer-0 delete", func(st *Store) string {
						rec, ok, err := st.Delete(0, id)
						return fmt.Sprint(rec, ok, err)
					})
				}
			}
			retire()
			mustAudit(t, trimmed)
			compareReaders(t, trimmed, full, candidates(), b1)
		}

		// Committing every live writer leaves nothing to see but the
		// newest committed state: one version per tuple, no tombstone.
		var rest []int
		for _, c := range candidates() {
			if c != next {
				rest = append(rest, c)
			}
		}
		commit(rest)
		mustAudit(t, trimmed)
		if s := trimmed.Stats(); s.Versions != s.Tuples || s.Tuples != s.Visible {
			t.Fatalf("idle store keeps history: %+v", s)
		}
		compareReaders(t, trimmed, full, []int{next}, 0)
	})
}

// compareReaders requires the two stores to answer identically for
// every listed reader through the views the horizon rule admits; knob
// varies the ceilings and the mask.
func compareReaders(t *testing.T, trimmed, full *Store, readers []int, knob byte) {
	t.Helper()
	h := trimmed.horizon()
	cur := trimmed.CurrentSeq()
	low := min(h.seq, cur)
	ceil := low + int64(knob)%(cur-low+1)
	logs := trimmed.UncommittedWrites()
	for _, r := range readers {
		views := map[string]func(sn *Snapshot) *Snapshot{
			"plain":   func(sn *Snapshot) *Snapshot { return sn },
			"ceiling": func(sn *Snapshot) *Snapshot { return ceiled(sn, ceil) },
			"window":  func(sn *Snapshot) *Snapshot { return windowed(sn, low, cur) },
			"relceil": func(sn *Snapshot) *Snapshot {
				sn.SetRelCeilings([]string{"A", "B"}, []int64{ceil, low})
				return sn
			},
			"relwindow": func(sn *Snapshot) *Snapshot {
				sn.SetRelWindow([]string{"A", "B"}, []int64{low, ceil}, cur)
				return sn
			},
		}
		if len(logs) > 0 {
			m := logs[int(knob)%len(logs)]
			views["mask"] = func(sn *Snapshot) *Snapshot {
				sn = ceiled(sn, ceil)
				sn.SetMask(m.Writer, m.Seq)
				return sn
			}
		}
		for name, view := range views {
			got, want := render(view(trimmed.Snap(r))), render(view(full.Snap(r)))
			if got != want {
				t.Fatalf("reader %d, %s view (horizon %+v, ceiling %d of %d):\ntrimmed:\n%s\nuntrimmed:\n%s",
					r, name, h, ceil, cur, got, want)
			}
		}
	}
}

// render lists what a snapshot shows, through the scans and the
// index-backed lookups readers use.
func render(sn *Snapshot) string {
	var b strings.Builder
	for _, rel := range []string{"A", "B"} {
		sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
			t := model.Tuple{Rel: rel, Vals: vals}
			fmt.Fprintf(&b, "%d %s lookup=%v more=%v\n", id, t, lookupContent(sn, t),
				sn.MoreSpecificInto(model.NewTuple(rel, vals[0], model.Null(99)), nil))
			return true
		})
	}
	for n := int64(1); n <= 4; n++ {
		if ids := sn.TuplesWithNull(model.Null(n)); len(ids) > 0 {
			fmt.Fprintf(&b, "_%d in %v\n", n, ids)
		}
	}
	for c := 0; c < 4; c++ {
		v := model.Const(fmt.Sprintf("c%d", c))
		fmt.Fprintf(&b, "A.x=%s %v\n", v, rowIDs(sn, "A", 0, v))
	}
	return b.String()
}
