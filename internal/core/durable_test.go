package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/obs"
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
		t.Fatalf("WALSyncs = %d, CommitBatches = %d: want 0 < syncs <= batches (covering syncs coalesce)",
			m.WALSyncs, m.CommitBatches)
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
// starts (the log's health and checkpoint loops) has ended shortly
// after Close returns, after Apply and after RunConcurrent at round
// widths 0 and 2: the goroutine count returns to its value before the
// open.
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
// sync fails, the rescue checkpoint's too, which poisons it. It holds
// too when every checkpoint fails — on writing its temp file, on
// installing it by rename, or torn mid-write — while a background
// checkpoint follows each commit, and when those background
// checkpoints cut the store while Apply commits without a fault. A
// checkpoint fault leaves the log healthy: the old checkpoint lineage
// stays authoritative, so commits go on and only checkpoints fail.
func TestCloseLeavesNoGoroutinesUnderFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		// ckptBytes is the repository's CheckpointBytes; 1 makes every
		// commit start a background checkpoint.
		ckptBytes int64
		// fault, when non-nil, scripts the schedule once the repository
		// is open.
		fault func(*vfs.FaultFS)
		// unhealthy: the fault fails a commit and leaves the log
		// degraded or poisoned. Otherwise every commit succeeds, the log
		// stays healthy, and a checkpoint fails iff there is a fault.
		unhealthy bool
	}{
		{"ENOSPC on append", 0, func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: vfs.NoSpace()})
			ffs.SetFreeBytes(0)
		}, true},
		{"failing sync", 0, func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpSync})
		}, true},
		{"failing checkpoint write", 1, func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "ckpt.tmp"})
		}, false},
		{"failing checkpoint rename", 1, func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpRename, Path: "ckpt-"})
		}, false},
		{"torn checkpoint write", 1, func(ffs *vfs.FaultFS) {
			ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "ckpt.tmp", Short: 7})
		}, false},
		{"background checkpoints during commits", 1, nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ffs := vfs.NewFaultFS(vfs.OS, 1)
			r, _, err := OpenWithOptions(durableDoc, Options{DataDir: t.TempDir(), FS: ffs, CheckpointBytes: c.ckptBytes})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const("Boston"))), simuser.New(42)); err != nil {
				t.Fatal(err)
			}
			if c.fault != nil {
				c.fault(ffs)
			}
			for _, city := range []string{"Elmira", "Albany", "Utica", "Troy", "Rome", "Olean"} {
				if _, err = r.Apply(chase.Insert(model.NewTuple("C", model.Const(city))), simuser.New(42)); err != nil {
					break
				}
			}
			h := r.Health()
			if (err != nil) != c.unhealthy || (h.State != wal.StateHealthy) != c.unhealthy {
				t.Fatalf("commits under the fault: %v, health %s; want unhealthy %v", err, h.State, c.unhealthy)
			}
			if !c.unhealthy {
				if c.fault != nil {
					// Every commit woke the background checkpointer;
					// wait until one is retrying the fault, so its
					// failure lands before Close.
					awaitRetries(t, r)
				}
				if err := r.Checkpoint(); (err != nil) != (c.fault != nil) {
					t.Fatalf("checkpoint: %v; want an error iff a fault is scripted", err)
				}
			}
			cerr := r.Close()
			switch {
			case c.unhealthy:
				t.Logf("commit: %v; health %s; close: %v", err, h.State, cerr)
			case c.fault == nil && cerr != nil:
				t.Fatalf("Close of a healthy log = %v, want nil", cerr)
			case c.fault != nil && (cerr == nil || !strings.Contains(cerr.Error(), "injected fault")):
				t.Fatalf("Close = %v, want the background checkpoint's injected fault", cerr)
			}
			awaitGoroutines(t, before)
		})
	}
}

// awaitRetries waits up to 5 s for the log to count a transient
// retry.
func awaitRetries(t *testing.T, r *Repository) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Health().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint retried the fault within 5 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableRunSyncsOnce: a durable scheduler run appends each commit
// batch and waits for durability once, at its end, so with background
// checkpoints off and no segment rotation one covering fsync lands the
// whole run, at every round width — and every update's trace shows its
// ack after its commit.
func TestDurableRunSyncsOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		r, ops, err := OpenWithOptions(durableDoc+`
insert C("Elmira")
insert C("Geneva")
insert C("Cortland")
insert C("Ithaca")
`, Options{DataDir: t.TempDir(), CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		r.SetTracer(tr)
		m, err := r.RunConcurrent(ops, concurrentConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if m.WALSyncs != 1 {
			t.Fatalf("workers=%d: WALSyncs = %d over %d commit batches, want 1", workers, m.WALSyncs, m.CommitBatches)
		}
		for u := 1; u <= len(ops); u++ {
			evs := tr.Events(u)
			ci, ai := firstIndex(evs, "commit"), firstIndex(evs, "ack")
			if ci < 0 || ai <= ci {
				t.Fatalf("workers=%d update %d: commit at %d, ack at %d: %+v", workers, u, ci, ai, evs)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableOpenStartsTwoGoroutines: a durable repository's log runs
// two goroutines, the background checkpointer and the health loop; its
// commits sync in the goroutines that wait for them.
func TestDurableOpenStartsTwoGoroutines(t *testing.T) {
	r, _, err := OpenWithOptions(durableDoc, Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Count the goroutines running this log's code, not
	// runtime.NumGoroutine: another test's log may still be unwinding.
	ours := regexp.MustCompile(fmt.Sprintf(`youtopia/internal/wal\.\(\*Manager\)\.\w+\(%p[,)]`, r.wal))
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if ours.MatchString(g) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d goroutines run the log after a durable open, want 2", n)
	}
}

// TestDurableRunStartsNoGoroutine: a durable scheduler run starts no
// goroutine — the goroutine count the user's Decide observes mid-run
// never exceeds the count before the run.
func TestDurableRunStartsNoGoroutine(t *testing.T) {
	r, ops, err := OpenWithOptions(durableDoc+`
insert C("Elmira")
insert C("Geneva")
insert C("Cortland")
insert C("Ithaca")
`, Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	inner := simuser.New(5)
	peak, decisions := 0, 0
	cfg := concurrentConfig(1)
	cfg.User = chase.UserFunc(func(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, context string) (chase.Decision, bool) {
		peak = max(peak, runtime.NumGoroutine())
		decisions++
		return inner.Decide(u, g, opts, context)
	})
	before := runtime.NumGoroutine()
	m, err := r.RunConcurrent(ops, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if decisions == 0 || m.CommitBatches < 2 {
		t.Fatalf("%d decisions over %d commit batches: the run shows nothing", decisions, m.CommitBatches)
	}
	if peak > before {
		t.Fatalf("%d goroutines inside Decide, %d before the run", peak, before)
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
