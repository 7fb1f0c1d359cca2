package storage

import (
	"fmt"
	"testing"

	"youtopia/internal/model"
)

func benchStore(b testing.TB, nTuples int) *Store {
	b.Helper()
	st := NewStore(testSchema())
	for i := 0; i < nTuples; i++ {
		t := tup("S",
			c(fmt.Sprintf("code%d", i%50)),
			c(fmt.Sprintf("loc%d", i%20)),
			c(fmt.Sprintf("city%d", i)))
		if _, err := st.Load(t); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func BenchmarkInsert(b *testing.B) {
	st := NewStore(testSchema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := st.Insert(1, tup("C", c(fmt.Sprintf("v%d", i))))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDuplicateNoOp(b *testing.B) {
	st := NewStore(testSchema())
	st.Load(tup("C", c("dup")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Insert(1, tup("C", c("dup")))
	}
}

// BenchmarkIndexProbe is a value probe, through ProbeRows into a warm
// row buffer, of a key with one member and of a key with a list of 40.
// Both must report 0 B/op under -benchmem.
func BenchmarkIndexProbe(b *testing.B) {
	st := benchStore(b, 2000)
	snap := st.Snap(1)
	for _, probe := range []struct {
		name string
		col  int
		v    model.Value
	}{{"one", 2, c("city7")}, {"list", 0, c("code7")}} {
		b.Run(probe.name, func(b *testing.B) {
			var rows []Row
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rows, _ = snap.ProbeRows("S", probe.col, probe.v, rows[:0], nil); len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkSnapshotGet is a point Get by tuple ID, a search of the
// member list, on a relation of 2000 loaded tuples ("dense") and on one
// whose every third tuple was then deleted and trimmed ("gapped"), which
// widens the window find searches to a third of the list. Both must
// report 0 B/op under -benchmem.
func BenchmarkSnapshotGet(b *testing.B) {
	for _, gapped := range []bool{false, true} {
		name := "dense"
		st := benchStore(b, 2000)
		if gapped {
			name = "gapped"
			for i, id := range rowIDs(st.Snap(0), "S", -1, model.Value{}) {
				if i%3 == 2 {
					if _, ok, err := st.Delete(0, id); !ok || err != nil {
						b.Fatal("delete failed", err)
					}
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			snap := st.Snap(1)
			ids := rowIDs(snap, "S", -1, model.Value{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := snap.Get(ids[i*7919%len(ids)]); !ok {
					b.Fatal("tuple not visible")
				}
			}
		})
	}
}

func BenchmarkScanRel(b *testing.B) {
	st := benchStore(b, 2000)
	snap := st.Snap(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		snap.ScanRel("S", func(TupleID, []model.Value) bool { n++; return true })
		if n != 2000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

func BenchmarkMoreSpecific(b *testing.B) {
	st := benchStore(b, 2000)
	snap := st.Snap(1)
	pattern := tup("S", n(1), n(2), c("city7"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.MoreSpecificInto(pattern, nil)
	}
}

func BenchmarkReplaceNull(b *testing.B) {
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(testSchema())
		for j := 0; j < 50; j++ {
			st.Load(tup("R", n(1), c(fmt.Sprintf("k%d", j))))
		}
		b.StartTimer()
		if _, err := st.ReplaceNull(1, n(1), c("done")); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkAbort(b *testing.B) {
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		st := benchStore(b, 200)
		for j := 0; j < 100; j++ {
			st.Insert(1, tup("C", c(fmt.Sprintf("w%d", j))))
		}
		b.StartTimer()
		st.Abort(1)
		b.StopTimer()
	}
}

// BenchmarkStoreInsert is the write path the chase drives, as one mix:
// each iteration is a writer that inserts eight fresh S tuples (three
// value columns, the content index, values shared with the loaded
// tuples), inserts one of them again (the set-semantics duplicate
// check), reads what it wrote the way a violation query does (a value
// probe) and then commits or, every
// fourth writer, aborts, which takes its tuples out of the indexes
// again. Run with -benchmem.
func BenchmarkStoreInsert(b *testing.B) {
	st := benchStore(b, 1000)
	fresh := make([]model.Tuple, 8*b.N)
	for i := range fresh {
		fresh[i] = tup("S",
			c(fmt.Sprintf("code%d", i%50)),
			c(fmt.Sprintf("loc%d", i%20)),
			c(fmt.Sprintf("new%d", i)))
	}
	var rows []Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, batch := i+1, fresh[8*i:8*i+8]
		for _, t := range batch {
			if _, _, _, err := st.Insert(w, t); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, inserted, _ := st.Insert(w, batch[3]); inserted {
			b.Fatal("duplicate content inserted")
		}
		snap := st.Snap(w)
		if rows, _ = snap.ProbeRows("S", 0, batch[0].Vals[0], rows[:0], nil); len(rows) == 0 {
			b.Fatal("indexes lost the writer's tuples")
		}
		if i%4 == 3 {
			st.Abort(w)
		} else if err := st.Commit(w); err != nil {
			b.Fatal(err)
		}
	}
}
