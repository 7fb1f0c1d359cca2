package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
	"youtopia/internal/vfs"
	"youtopia/internal/wal"
)

func concurrentConfig(workers int) cc.Config {
	return cc.Config{User: simuser.New(5), Workers: workers}
}

const durableDoc = `
relation C(city)
relation S(code, location, city_served)
mapping sigma1: C(c) -> exists a, l: S(a, l, c)
mapping sigma2: S(a, l, c) -> C(l), C(c)
tuple C("Ithaca")
tuple S("SYR", "Syracuse", "Ithaca")
`

func TestDurableRepositoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir}
	r, _, err := OpenWithOptions(durableDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	user := simuser.New(42)
	for _, city := range []string{"Boston", "Albany"} {
		op := chase.Insert(model.NewTuple("C", model.Const(city)))
		if _, err := r.Apply(op, user); err != nil {
			t.Fatal(err)
		}
	}
	want := r.Dump()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(durableDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Recovery().Fresh {
		t.Fatal("reopen reported a fresh directory")
	}
	if got := r2.Dump(); got != want {
		t.Fatalf("recovered repository differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	// The recovered repository accepts new updates (recovery collapsed
	// all committed writers onto writer 0, freeing the number space).
	op := chase.Insert(model.NewTuple("C", model.Const("Utica")))
	if _, err := r2.Apply(op, user); err != nil {
		t.Fatal(err)
	}
	if got := r2.Dump(); got == want {
		t.Fatal("post-recovery update had no effect")
	}
}

func TestDurableRunConcurrentSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	r, ops, err := OpenWithOptions(durableDoc+`
insert C("Elmira")
insert C("Geneva")
insert C("Cortland")
`, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunConcurrent(ops, concurrentConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.WALSyncs == 0 || m.WALSyncs > m.CommitBatches {
		t.Fatalf("WALSyncs = %d, CommitBatches = %d: want 0 < syncs <= batches (pipelined syncs coalesce)",
			m.WALSyncs, m.CommitBatches)
	}
	if m.CommitAckP50 <= 0 || m.CommitAckP99 < m.CommitAckP50 {
		t.Fatalf("commit-ack percentiles p50=%v p99=%v: want 0 < p50 <= p99",
			m.CommitAckP50, m.CommitAckP99)
	}
	want := r.Dump()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Dump(); got != want {
		t.Fatalf("concurrent run lost across reopen:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDocTuplesDoNotResurrectAfterCommittedDelete pins the reload
// policy: a document tuple deleted by a committed update must stay
// deleted when the same document is reopened over the data directory
// — durable state, not the document, is the truth after bootstrap.
func TestDocTuplesDoNotResurrectAfterCommittedDelete(t *testing.T) {
	// No mappings: the delete terminates without frontier decisions.
	doc := `
relation C(city)
tuple C("Ithaca")
tuple C("Dryden")
`
	dir := t.TempDir()
	r, _, err := OpenWithOptions(doc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(chase.Delete(model.NewTuple("C", model.Const("Ithaca"))), nil); err != nil {
		t.Fatal(err)
	}
	want := r.Dump()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(doc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Dump(); got != want {
		t.Fatalf("document reload resurrected a committed deletion:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestInMemoryRepositoryReportsNoSyncs(t *testing.T) {
	r, ops, err := Open(durableDoc + `
insert C("Elmira")
`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Durable() {
		t.Fatal("in-memory repository claims durability")
	}
	m, err := r.RunConcurrent(ops, concurrentConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.WALSyncs != 0 {
		t.Fatalf("WALSyncs = %d on an in-memory store", m.WALSyncs)
	}
}

// TestOptionsValidation: NewWithOptions refuses a negative SegmentBytes
// (which used to write one segment file per commit) and a Durability
// naming no sync policy (which used to report itself as "always") with
// an *OptionsError, before it creates the data directory; a negative
// CheckpointBytes keeps its meaning, no background checkpoints.
func TestOptionsValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  Options
		field string // "" = accepted
	}{
		{"defaults", Options{}, ""},
		{"never sync", Options{Durability: wal.SyncNever}, ""},
		{"no background checkpoints", Options{CheckpointBytes: -1}, ""},
		{"explicit sizes", Options{SegmentBytes: 1 << 14, CheckpointBytes: 1 << 16}, ""},
		{"negative segment size", Options{SegmentBytes: -1}, "SegmentBytes"},
		{"unknown sync policy", Options{Durability: wal.SyncPolicy(7)}, "Durability"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opts.Validate(); (err == nil) != (c.field == "") {
				t.Fatalf("Validate() = %v", err)
			}
			c.opts.DataDir = filepath.Join(t.TempDir(), "data")
			r, _, err := OpenWithOptions(durableDoc, c.opts)
			if c.field == "" {
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			var oe *OptionsError
			if !errors.As(err, &oe) || oe.Field != c.field {
				t.Fatalf("err = %v, want an *OptionsError on %s", err, c.field)
			}
			if _, err := os.Stat(c.opts.DataDir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused options touched the data directory: %v", err)
			}
		})
	}
}

// TestCloseLeavesNoGoroutines: every goroutine a durable repository
// starts (the log's sync, health and checkpoint loops, the commit-ack
// waiters) has ended shortly after Close returns, after Apply and after
// RunConcurrent at round widths 0 and 2: the goroutine count returns to
// its value before the open.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 2} {
		r, _, err := OpenWithOptions(durableDoc, Options{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var ops []chase.Op
		for _, city := range []string{"Boston", "Albany", "Utica", "Troy"} {
			ops = append(ops, chase.Insert(model.NewTuple("C", model.Const(city))))
		}
		if _, err := r.RunConcurrent(ops, concurrentConfig(workers)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const("Elmira"))), simuser.New(42)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	awaitGoroutines(t, before)
}

// TestCloseLeavesNoGoroutinesUnderFaults: the same holds when the log
// degrades on ENOSPC in the middle of an Apply's commit, and when every
// sync fails, the rescue checkpoint's too, which poisons it.
func TestCloseLeavesNoGoroutinesUnderFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		// fault scripts the schedule once the repository is open.
		fault func(*vfs.FaultFS)
	}{
		{"ENOSPC on append", func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: vfs.NoSpace()})
			ffs.SetFreeBytes(0)
		}},
		{"failing sync", func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpSync})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ffs := vfs.NewFaultFS(vfs.OS, 1)
			r, _, err := OpenWithOptions(durableDoc, Options{DataDir: t.TempDir(), FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const("Boston"))), simuser.New(42)); err != nil {
				t.Fatal(err)
			}
			c.fault(ffs)
			_, err = r.Apply(chase.Insert(model.NewTuple("C", model.Const("Elmira"))), simuser.New(42))
			h := r.Health()
			if err == nil || h.State == wal.StateHealthy {
				t.Fatalf("commit under the fault: %v, health %s; want an error and an unhealthy log", err, h.State)
			}
			t.Logf("commit: %v; health %s; close: %v", err, h.State, r.Close())
			awaitGoroutines(t, before)
		})
	}
}

// awaitGoroutines fails unless the goroutine count returns to before
// within 5 s.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5 s after Close, %d before the open:\n%s", n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
