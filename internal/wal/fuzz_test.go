package wal

import (
	"os"
	"path/filepath"
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// FuzzWALReplay drives a random sequence of commit batches (inserts,
// deletes, counter and minted null insertions and replacements,
// interleaved checkpoints)
// through a real log, then injures the tail — truncating the last
// segment at an arbitrary byte, or flipping a byte in its final
// region — and asserts the invariant the subsystem promises: recovery
// yields exactly the committed prefix the surviving frames cover,
// never part of a batch, and RecoveryInfo.LastBatch tells the truth
// about which prefix that is.
//
// Bit 1 of cut selects the shutdown: a clean Close (every batch
// acknowledged), or a crash with the final batch committed through
// the pipeline but never acknowledged — the kill-between-append-and-
// sync and kill-between-sync-and-ack windows. The invariant is the
// same either way (the injury decides how much of the unacknowledged
// tail survives, and the oracle accepts any whole-batch prefix), but
// the crash path exercises recovery over a tail whose covering sync
// was never observed.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint16(0))
	f.Add([]byte{200, 201, 220, 240, 250, 10, 20, 221, 241}, uint16(7))
	f.Add([]byte{250, 250, 0, 200, 240, 220, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(33000))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 250, 9, 8, 7}, uint16(999))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 202, 208}, uint16(2))
	f.Add([]byte{210, 212, 230, 244, 7, 7, 7}, uint16(6))
	f.Fuzz(func(t *testing.T, script []byte, cut uint16) {
		if len(script) == 0 {
			return
		}
		crash := cut&2 != 0
		dir := t.TempDir()
		schema := model.NewSchema()
		schema.MustAddRelation("C", "a")
		schema.MustAddRelation("R", "a", "b")
		m, st, err := Open(dir, schema, Options{SegmentBytes: 512, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}

		// Interpret the script: each byte is one operation, batches of
		// up to three operations commit under one writer. dumps[k] is
		// the oracle instance after batch k. Batches whose operations
		// all no-op'ed (duplicate inserts, deletes of invisible tuples,
		// replacements with nothing to rewrite) produce no write
		// records, so the commit skips the log append entirely — the
		// oracle only advances on batches the log actually carries.
		dumps := []string{st.Dump(allSeeing)}
		writer := 0
		var ids []storage.TupleID
		var nulls []model.Value
		inBatch := 0
		wrote := false
		commit := func() {
			if inBatch == 0 {
				return
			}
			if crash {
				// Pipelined commit, ack dropped: every batch stays
				// unacknowledged, as in a process killed between its
				// appends and their covering syncs.
				if _, err := st.CommitBatchAsync([]int{writer}); err != nil {
					t.Fatal(err)
				}
			} else if err := st.CommitBatch([]int{writer}); err != nil {
				t.Fatal(err)
			}
			if wrote {
				dumps = append(dumps, st.Dump(allSeeing))
			}
			inBatch = 0
			wrote = false
		}
		begin := func() {
			if inBatch == 0 {
				writer++
			}
			inBatch++
		}
		for _, b := range script {
			switch {
			case b < 100:
				begin()
				id, _, ins, err := st.Insert(writer, tup("C", c(string(rune('a'+b%26)))))
				if err != nil {
					t.Fatal(err)
				}
				wrote = wrote || ins
				ids = append(ids, id)
			case b < 200:
				begin()
				id, _, ins, err := st.Insert(writer,
					tup("R", c(string(rune('a'+b%13))), c(string(rune('n'+b%7)))))
				if err != nil {
					t.Fatal(err)
				}
				wrote = wrote || ins
				ids = append(ids, id)
			case b < 220:
				begin()
				x := st.FreshNull()
				if b%2 == 1 {
					// A null named the way a chase names it, which the
					// log writes as its three fields.
					var err error
					if x, err = model.MintedNull(int64(b%3)+1, writer, len(nulls)); err != nil {
						t.Fatal(err)
					}
				}
				id, _, ins, err := st.Insert(writer, tup("R", x, c("k")))
				if err != nil {
					t.Fatal(err)
				}
				wrote = wrote || ins
				ids = append(ids, id)
				nulls = append(nulls, x)
			case b < 240:
				if len(ids) == 0 {
					continue
				}
				begin()
				if _, ok, err := st.Delete(writer, ids[int(b)%len(ids)]); err != nil {
					t.Fatal(err)
				} else {
					wrote = wrote || ok
				}
			case b < 250:
				if len(nulls) == 0 {
					continue
				}
				begin()
				// The null may already have been replaced or deleted
				// everywhere; ReplaceNull then just writes nothing.
				x := nulls[int(b)%len(nulls)]
				if recs, err := st.ReplaceNull(writer, x, c(string(rune('a'+b%5)))); err != nil {
					t.Fatal(err)
				} else {
					wrote = wrote || len(recs) > 0
				}
			default:
				// Checkpoint between batches.
				commit()
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if inBatch == 3 {
				commit()
			}
		}
		commit()
		total := int(m.Batches())
		if total+1 != len(dumps) {
			t.Fatalf("oracle drift: %d batches, %d dumps", total, len(dumps))
		}
		if crash {
			m.crashStop()
		} else if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		// Injure the tail segment.
		segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
		if len(segs) > 0 {
			seg := segs[len(segs)-1]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if cut&1 == 0 {
				// Torn tail: truncate at an arbitrary byte.
				at := int(cut) % (len(data) + 1)
				data = data[:at]
			} else if len(data) > headerLen {
				// Bit rot in the frame region's tail quarter. (A flipped
				// header is a different failure — it reads as a foreign
				// or mismatched-schema segment, which recovery refuses
				// rather than silently drops; the crash table covers
				// torn headers.)
				start := len(data) * 3 / 4
				if start < headerLen {
					start = headerLen
				}
				pos := start + int(cut)%(len(data)-start)
				data[pos] ^= 0x40
			}
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		st2, info, err := Recover(dir, schema)
		if err != nil {
			t.Fatal(err)
		}
		if info.LastBatch < 0 || info.LastBatch > int64(total) {
			t.Fatalf("LastBatch = %d out of range [0, %d]", info.LastBatch, total)
		}
		if got, want := st2.Dump(allSeeing), dumps[info.LastBatch]; got != want {
			t.Fatalf("recovered instance is not the committed prefix at batch %d:\n got:\n%s\nwant:\n%s",
				info.LastBatch, got, want)
		}
	})
}
