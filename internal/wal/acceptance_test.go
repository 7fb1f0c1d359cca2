// The acceptance test of the durability subsystem, in an external
// test package so it can drive the real stack: a synthetic universe
// seeded and updated through the scheduler at round width > 1 over a
// write-ahead-logged store, crash-killed at every commit-batch
// boundary, must recover a byte-identical instance — checked against
// an oracle maintained independently from the observed log batches.
package wal_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/model"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

const allSeeing = 1 << 30

// batchOracle tracks the committed instance batch by batch, from the
// write records alone: per tuple ID, the last write in (writer, seq)
// order wins — exactly the store's multiversion visibility once
// everything is committed. Tuples it never saw born (the initial
// database) live in a content multiset that deletes and modifies
// draw down.
type batchOracle struct {
	base map[string]int // content key -> count, for initial tuples
	live map[storage.TupleID]model.Tuple
	dead map[storage.TupleID]bool
}

func newBatchOracle(initial []model.Tuple) *batchOracle {
	o := &batchOracle{
		base: make(map[string]int),
		live: make(map[storage.TupleID]model.Tuple),
		dead: make(map[storage.TupleID]bool),
	}
	for _, t := range initial {
		o.base[t.Key()]++
	}
	return o
}

func (o *batchOracle) apply(recs []storage.WriteRec) {
	for _, w := range recs {
		known := o.dead[w.ID]
		if _, ok := o.live[w.ID]; ok {
			known = true
		}
		switch w.Op {
		case storage.OpInsert:
			o.live[w.ID] = model.Tuple{Rel: w.Rel, Vals: w.After}
			delete(o.dead, w.ID)
		case storage.OpDelete:
			if known {
				delete(o.live, w.ID)
				o.dead[w.ID] = true
			} else {
				// An initial-database tuple: retire its content.
				o.base[model.Tuple{Rel: w.Rel, Vals: w.Before}.Key()]--
			}
		case storage.OpModify:
			if !known {
				o.base[model.Tuple{Rel: w.Rel, Vals: w.Before}.Key()]--
			}
			o.live[w.ID] = model.Tuple{Rel: w.Rel, Vals: w.After}
			delete(o.dead, w.ID)
		}
	}
}

// dump renders the oracle instance in storage.Dump's format: one line
// per visible tuple, sorted.
func (o *batchOracle) dump() string {
	var lines []string
	for k, n := range o.base {
		t := tupleFromKey(k)
		for i := 0; i < n; i++ {
			lines = append(lines, t.String())
		}
	}
	for _, t := range o.live {
		lines = append(lines, t.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// tupleFromKey inverts model.Tuple.Key (rel and encoded values joined
// by NUL, constants prefixed c, nulls n<id>).
func tupleFromKey(k string) model.Tuple {
	parts := strings.Split(k, "\x00")
	t := model.Tuple{Rel: parts[0]}
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "n") {
			var id int64
			fmt.Sscanf(p[1:], "%d", &id)
			t.Vals = append(t.Vals, model.Null(id))
		} else {
			t.Vals = append(t.Vals, model.Const(strings.TrimPrefix(p, "c")))
		}
	}
	return t
}

func TestParallelCrashRecoveryAtEveryBatchBoundary(t *testing.T) {
	cfg := workload.Config{
		Relations:       12,
		MinArity:        1,
		MaxArity:        3,
		Constants:       10,
		Mappings:        14,
		MaxAtomsPerSide: 2,
		InitialTuples:   120,
		Updates:         30,
		InsertPct:       80,
		Seed:            7,
	}
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "wal")
	var mu sync.Mutex
	type batch struct {
		idx  int64
		recs []storage.WriteRec
	}
	var batches []batch
	st, mgr, err := u.OpenDurableStore(dir, wal.Options{
		CheckpointBytes: -1, // keep every batch on disk for the prefixes
		Observer: func(idx int64, writers []int, recs []storage.WriteRec) {
			mu.Lock()
			batches = append(batches, batch{idx, append([]storage.WriteRec(nil), recs...)})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ops := u.GenOpsSeeded(99)
	sched := cc.NewScheduler(st, u.Mappings, cc.Config{
		Workers:            4,
		Tracker:            cc.Coarse{},
		User:               simuser.New(5),
		MaxAbortsPerUpdate: 10000,
	})
	m, err := sched.Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	// The pipelined sync coalesces consecutive batches: at least one
	// fsync covered the run, never more than one per batch.
	if m.WALSyncs == 0 || m.WALSyncs > m.CommitBatches {
		t.Fatalf("WALSyncs = %d, CommitBatches = %d: want 0 < syncs <= batches", m.WALSyncs, m.CommitBatches)
	}
	final := st.Dump(allSeeing)
	total := mgr.Batches()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if int64(len(batches)) != total {
		t.Fatalf("observer saw %d batches, manager %d", len(batches), total)
	}

	// An uninterrupted crash (kill right after the last commit):
	// recovery is byte-identical to the live instance.
	stFull, info, err := wal.Recover(dir, u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastBatch != total {
		t.Fatalf("full recovery reached batch %d, want %d", info.LastBatch, total)
	}
	if got := stFull.Dump(allSeeing); got != final {
		t.Fatalf("full recovery is not byte-identical:\n got:\n%s\nwant:\n%s", got, final)
	}

	// Kill at every commit-batch boundary: clone the log up to batch
	// k, recover, and compare against the independent oracle.
	oracle := newBatchOracle(u.Initial)
	dumps := map[int64]string{0: oracle.dump()}
	for _, b := range batches {
		oracle.apply(b.recs)
		dumps[b.idx] = oracle.dump()
	}
	if dumps[total] != final {
		t.Fatalf("oracle disagrees with the live instance at the end:\n got:\n%s\nwant:\n%s",
			dumps[total], final)
	}
	for k := int64(0); k <= total; k++ {
		clone := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", k))
		if err := wal.ClonePrefix(dir, clone, k); err != nil {
			t.Fatal(err)
		}
		stK, infoK, err := wal.Recover(clone, u.Schema)
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		if infoK.LastBatch != k {
			t.Fatalf("boundary %d: recovered to batch %d", k, infoK.LastBatch)
		}
		if got := stK.Dump(allSeeing); got != dumps[k] {
			t.Fatalf("boundary %d: recovered instance differs from oracle:\n got:\n%s\nwant:\n%s",
				k, got, dumps[k])
		}
		if err := stK.AuditIndexes(); err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
	}
}

// TestDurableSeedBuildResumes exercises the durable seed build: a
// universe's initial database built into a WAL directory once is
// byte-identically reloaded (not rebuilt) on reopen, including after
// workload batches were committed on top.
func TestDurableSeedBuildResumes(t *testing.T) {
	cfg := workload.Quick()
	cfg.Relations = 8
	cfg.Mappings = 8
	cfg.InitialTuples = 60
	cfg.Updates = 12
	u, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "seed")
	st, mgr, err := u.OpenDurableStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.Fresh() {
		t.Fatal("first open not fresh")
	}
	seeded := st.Dump(allSeeing)
	// Commit a workload on top through the serial execution.
	if _, err := serial.Execute(st, u.Mappings, u.GenOpsSeeded(4), simuser.New(3)); err != nil {
		t.Fatal(err)
	}
	want := st.Dump(allSeeing)
	if want == seeded {
		t.Fatal("workload had no effect")
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	st2, mgr2, err := u.OpenDurableStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if mgr2.Fresh() {
		t.Fatal("reopen reported fresh")
	}
	if got := st2.Dump(allSeeing); got != want {
		t.Fatalf("durable seed build lost state:\n got:\n%s\nwant:\n%s", got, want)
	}
}
