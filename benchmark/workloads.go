package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/core"
	"youtopia/internal/obs"
	"youtopia/internal/query"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/vfs"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

// scale fixes how much work a run does. A run's work depends only on
// (workload, seed, seconds, scale), never on how fast the program is,
// so a parent and a change execute identical operations and counts
// repeat exactly.
type scale struct {
	universe   workload.Config
	sparse     int // mapping prefix of the sparse workloads
	ops        int // updates per op-set of serial_dense, serial_sparse_durable, parallel_sparse
	coopWindow int // updates in flight at once in coop_dense
	coopGroup  int // windows per coop_dense op-set
	queryEvery int // serial_*: one Certain query after this many updates
	passes     int // identical passes, a set-up before each
	probes     int // violation-probe replays in a traced run
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		// The paper's §6 generator (100 relations of arity 1–6, 50
		// constants, 100 mappings of ≤3 atoms a side) over 1000 seed
		// inserts chased serially: ≈2.0k tuples, ≈1.9 s to build here,
		// which is what lets set-up run before every pass of a run.
		u := workload.Default()
		u.InitialTuples = 1000
		u.SetupWorkers = -1
		return scale{universe: u, sparse: 40, ops: 4000, coopWindow: 100, coopGroup: 25,
			queryEvery: 10, passes: 3, probes: 500}, nil
	case "smoke":
		u := workload.Quick()
		u.SetupWorkers = -1
		return scale{universe: u, sparse: 10, ops: 60, coopWindow: 20, coopGroup: 2,
			queryEvery: 10, passes: 2, probes: 20}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

// workloadDef is one benchmark workload. opsetSeconds is the wall time
// of one op-set (load, timed region and checks) on the reference
// machine; it converts --seconds into the number of op-sets in a pass.
type workloadDef struct {
	name, why    string
	opsetSeconds float64
	durable      bool
	// opset runs op-set g on a fresh repository or backend and adds what
	// it measured to ps.
	opset func(e *env, ps *pass, g int, v variant) error
}

// pass runs op-sets 0..groups-1 once. Every pass of a run executes the
// same op-sets, so its passes differ only by what the machine did.
func (w workloadDef) pass(e *env, groups int, v variant) (*pass, error) {
	ps := &pass{}
	for g := 0; g < groups; g++ {
		if err := w.opset(e, ps, g, v); err != nil {
			return nil, fmt.Errorf("op-set %d: %w", g, err)
		}
	}
	return ps, nil
}

var workloads = []workloadDef{
	{
		name:         "serial_dense",
		why:          "Curator's interactive path: core.Repository.Apply in memory, all 100 mappings, 80/20 insert/delete, a Certain query every 10th update; chase+query and commit/epoch publish dominate, no cc, no wal.",
		opsetSeconds: 0.62,
		opset: func(e *env, ps *pass, g int, v variant) error {
			return e.serialOpset(ps, g, e.dense, 80, false, v)
		},
	},
	{
		name:         "serial_sparse_durable",
		why:          "Same path with a data directory on the real filesystem under SyncAlways over 40 mappings, all-insert, then close, reopen, compare; chases are short so WAL append, fsync and commit dominate.",
		opsetSeconds: 1.25,
		durable:      true,
		opset: func(e *env, ps *pass, g int, v variant) error {
			return e.serialOpset(ps, g, e.sparse, 100, true, v)
		},
	},
	{
		name:         "coop_dense",
		why:          "cc.Scheduler round-robin-step under COARSE over all 100 mappings, windows of 100 updates 80/20 all in flight on a fresh backend; conflict checks and abort waves dominate (1.3 executions per update).",
		opsetSeconds: 1.0,
		opset: func(e *env, ps *pass, g int, v variant) error {
			return e.schedOpset(ps, g, schedSpec{set: e.dense, ops: e.sc.coopWindow, insertPct: 80, windows: e.sc.coopGroup}, v)
		},
	},
	{
		name:         "parallel_sparse",
		why:          "cc.ParallelScheduler with two workers over 40 mappings, all-insert, in memory; dispatch, phase lock and group commit with almost no abort rework, so it bypasses what coop_dense stresses.",
		opsetSeconds: 0.65,
		opset: func(e *env, ps *pass, g int, v variant) error {
			return e.schedOpset(ps, g, schedSpec{set: e.sparse, ops: e.sc.ops, insertPct: 100, windows: 1, workers: 2}, v)
		},
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// variant selects how a pass is executed. The zero value is the
// measured form: the program's real entry point, nothing decorated.
type variant struct {
	// tr, when set, runs the pass through the decorators of trace.go
	// (and, for serial_*, through the hand-assembled pipeline).
	tr *tracer
	// bare runs serial_* through the hand-assembled pipeline without
	// decorators: the baseline for core.overhead and trace.overhead.
	bare bool
	// precise swaps COARSE for PRECISE; workers overrides the worker
	// count of parallel_sparse.
	precise bool
	workers int
	// oracle holds every coop_dense window to the serial oracle. The
	// first pass of a run and every traced pass set it; the later passes
	// must reproduce the first byte for byte instead. parallel_sparse,
	// which cannot, runs the oracle on every op-set regardless.
	oracle bool
}

// env is what set-up hands every pass: the universe and the run's seed.
type env struct {
	sc            scale
	u             *workload.Universe
	dense, sparse *tgd.Set
	cqs           []*query.CQ
	seed          int64
	dataRoot      string
	// lat and qlat are the latency buffers every serial op-set reuses.
	lat, qlat []time.Duration
}

// universeSeed maps the run's seed to the seed of the universe (schema,
// mappings, initial database). The acceptance protocol holds ten runs
// with ten seeds to one bound, and generated universes differ threefold
// in throughput and twentyfold in abort count, so all seeds share
// universe 1 — except seed 2, the held-out seed, which gets a universe
// no bound was fitted to. The seed drives every op-set and the curator's
// decisions whatever the universe.
func universeSeed(seed int64) int64 {
	if seed == 2 {
		return 2
	}
	return 1
}

// setup builds the universe and performs the workload's first load.
func setup(sc scale, w workloadDef, seed int64, dataRoot string) (*env, error) {
	cfg := sc.universe
	cfg.Seed = universeSeed(seed)
	u, err := workload.Build(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{sc: sc, u: u, dense: u.Mappings, sparse: u.Mappings.Prefix(sc.sparse), seed: seed, dataRoot: dataRoot}
	for i, m := range u.Mappings.All() {
		q := &query.CQ{Name: fmt.Sprintf("q%d", i), Body: m.LHS}
		for _, v := range m.LHS[0].Vars() {
			if len(q.Head) < 2 {
				q.Head = append(q.Head, v)
			}
		}
		if len(q.Head) > 0 && q.Validate(u.Schema) == nil {
			e.cqs = append(e.cqs, q)
		}
	}
	if len(e.cqs) == 0 {
		return nil, fmt.Errorf("no conjunctive query could be derived from the mappings")
	}
	if w.durable {
		dir := filepath.Join(dataRoot, "setup")
		repo, err := e.openRepo(dir, e.sparse)
		if err != nil {
			return nil, err
		}
		if err := repo.Close(); err != nil {
			return nil, err
		}
		return e, os.RemoveAll(dir)
	}
	_, err = u.NewBackend()
	return e, err
}

// openRepo opens a repository over the mapping set — in memory when dir
// is empty, durable otherwise — and, unless the directory already holds
// state, loads the initial database and makes it durable with a
// checkpoint (a no-op in memory).
func (e *env) openRepo(dir string, set *tgd.Set) (*core.Repository, error) {
	repo, err := core.NewWithOptions(e.u.Schema, set, core.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	if dir == "" || repo.Recovery().Fresh {
		if err := errors.Join(e.load(repo.Store()), repo.Checkpoint()); err != nil {
			repo.Close()
			return nil, err
		}
	}
	return repo, nil
}

func (e *env) load(st storage.Backend) error {
	for _, t := range e.u.Initial {
		if _, err := st.Load(t); err != nil {
			return err
		}
	}
	return nil
}

// opSeed derives the seed of one op-set (of one window of a coop_dense
// op-set) from the run's seed.
func (e *env) opSeed(g, window int) int64 {
	return (e.seed*1_000_003+int64(g))*1009 + int64(window)
}

func (e *env) genOps(n, insertPct int, seed int64) []chase.Op {
	v := *e.u
	v.Config.Updates, v.Config.InsertPct = n, insertPct
	return v.GenOpsSeeded(seed)
}

// region is what one timed region measured: one op-set of serial_* and
// parallel_sparse, one window of coop_dense.
type region struct {
	updates, runs int
	wall, cpu     time.Duration
	allocBytes    uint64
	// serial_* only: quantiles of the Apply call (p50, p90, p99, max) and
	// of the Certain query (p50, p99), in microseconds.
	updateUS [4]float64
	queryUS  [2]float64
}

// pass is what one pass measured. The end-to-end figures are medians
// over its regions; the totals serve the per-layer figures.
type pass struct {
	regions               []region
	updates, runs, failed int
	wall, cpu, load       time.Duration
	// heapBytes is the live heap after each op-set's timed region, the
	// op-set's store still in hand.
	heapBytes     []uint64
	gcCycles      uint32
	gcCPU         float64
	counters      map[string]int64
	recovery      time.Duration
	replayed      int
	checkpoints   int64
	checkpointNS  int64
	m             cc.Metrics
	oracleWall    time.Duration
	oracleUpdates int
	// dumps holds a digest of the final Dump() of every op-set (every
	// window) of a deterministic workload, in order.
	dumps    [][sha256.Size]byte
	problems []string
	// final and ops are the last op-set's store and updates, which a
	// traced pass keeps for the violation probe. A measured pass keeps its
	// figures only: a retained store would weigh on the next op-set's heap
	// and collector.
	final storage.Backend
	ops   []chase.Op
}

// sameDumps reports whether two passes ended every op-set they both ran
// in byte-identical states.
func (ps *pass) sameDumps(other *pass) bool {
	n := min(len(ps.dumps), len(other.dumps))
	return (n > 0 || len(ps.dumps) == len(other.dumps)) && slices.Equal(ps.dumps[:n], other.dumps[:n])
}

func (ps *pass) problem(format string, args ...any) {
	ps.failed++
	if len(ps.problems) < 8 {
		ps.problems = append(ps.problems, fmt.Sprintf(format, args...))
	}
}

// counterNames are the obs.Default counters read around timed regions.
var counterNames = []string{
	"chase_steps_total", "chase_writes_total", "chase_frontier_ops_total",
	"query_plans_compiled", "query_plan_cache_hits", "query_index_probes_total", "query_join_steps_total",
	"storage_epoch_publish_total", "storage_stripe_lock_contended_total", "storage_stripe_rlock_contended_total",
	"wal_appends_total", "wal_append_bytes_total", "wal_fsyncs_total",
}

var counterHandles = func() []*obs.Counter {
	hs := make([]*obs.Counter, len(counterNames))
	for i, n := range counterNames {
		hs[i] = obs.Default.Counter(n)
	}
	return hs
}()

var (
	ckptCount = obs.Default.Counter("wal_checkpoints_total")
	ckptWait  = obs.Default.LatencyHistogram("wal_checkpoint_seconds")
)

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// timed runs fn, which executes the given number of updates and returns
// the number of executions it took, as a timed region, fenced by a
// collection so that one region does not pay for the garbage of the load
// before it.
func (ps *pass) timed(updates int, fn func() int) *region {
	if ps.counters == nil {
		ps.counters = make(map[string]int64, len(counterNames))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := make([]int64, len(counterHandles))
	for i, h := range counterHandles {
		before[i] = h.Value()
	}
	gc0, cpu0, t0 := gcCPUSeconds(), cpuTime(), time.Now()
	r := region{updates: updates, runs: fn()}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	ps.gcCPU += gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.regions = append(ps.regions, r)
	ps.updates += r.updates
	ps.runs += r.runs
	ps.wall += r.wall
	ps.cpu += r.cpu
	ps.gcCycles += m1.NumGC - m0.NumGC
	for i, h := range counterHandles {
		ps.counters[counterNames[i]] += h.Value() - before[i]
	}
	return &ps.regions[len(ps.regions)-1]
}

// liveHeap ends an op-set's timed region: it records the heap still
// live with the op-set's store in hand.
func (ps *pass) liveHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ps.heapBytes = append(ps.heapBytes, m.HeapAlloc)
}

const allReader = 1 << 30

func violations(st storage.Backend, set *tgd.Set) int {
	return len(query.NewEngine(st.Snap(allReader)).AllViolations(set))
}

// serialTarget is the synchronous single-update surface a serial pass
// drives: core.Repository itself, or the same pipeline by hand.
type serialTarget struct {
	apply   func(chase.Op) error
	certain func(*query.CQ) error
	store   storage.Backend
	dump    func() string
	close   func() error
}

func repoTarget(repo *core.Repository, user chase.User) *serialTarget {
	return &serialTarget{
		apply:   func(op chase.Op) error { _, err := repo.Apply(op, user); return err },
		certain: func(q *query.CQ) error { _, err := repo.Certain(q); return err },
		store:   repo.Store(),
		dump:    repo.Dump,
		close:   repo.Close,
	}
}

// pipelineTarget assembles core.ApplyTraced by hand — chase to
// completion, CommitBatchAsync, wait for the ack — over a backend the
// benchmark may decorate. With a nil tracer it is the bare baseline.
func (e *env) pipelineTarget(set *tgd.Set, dir string, user chase.User, tr *tracer) (*serialTarget, error) {
	var commit atomic.Int64
	var st *storage.Store
	var err error
	closeFn := func() error { return nil }
	if dir == "" {
		st, err = e.u.NewStore()
	} else {
		var fsys vfs.FS
		if tr != nil {
			fsys = &tracedFS{FS: vfs.OS, tr: tr, commit: &commit}
		}
		var mgr *wal.Manager
		if st, mgr, err = e.u.OpenDurableStore(dir, wal.Options{FS: fsys}); err == nil {
			closeFn = mgr.Close
		}
	}
	if err != nil {
		return nil, err
	}
	var backend storage.Backend = st
	var tb *tracedBackend
	var tu *tracedUser
	if tr != nil {
		tb = &tracedBackend{Backend: st, tr: tr, commit: &commit}
		tu = &tracedUser{inner: user, tr: tr}
		backend, user = tb, tu
	}
	under := func(parent int) {
		if tr != nil {
			tb.parent, tu.parent = parent, parent
		}
	}
	eng := chase.NewEngine(backend, set)
	eng.MaxStepsPerAttempt = 100000
	next := 1
	apply := func(op chase.Op) error {
		n := next
		next++
		root := tr.begin("core.update", 0, n)
		defer tr.end(root)
		run := tr.begin("chase.run", root, n)
		under(run)
		_, err := (&chase.Runner{Engine: eng, User: user}).Run(chase.NewUpdate(n, op))
		tr.end(run)
		under(root)
		if err != nil {
			backend.Abort(n)
			return err
		}
		ack, err := backend.CommitBatchAsync([]int{n})
		if err != nil {
			backend.Abort(n)
			return err
		}
		if ack != nil {
			wait := tr.begin("wal.ack_wait", root, n)
			err = ack()
			tr.end(wait)
		}
		return err
	}
	certain := func(q *query.CQ) error {
		id := tr.begin("query.certain", 0, next)
		defer tr.end(id)
		under(id)
		query.NewEngine(backend.Snap(next)).CertainAnswers(q)
		return nil
	}
	return &serialTarget{
		apply: apply, certain: certain, store: st, close: closeFn,
		dump: func() string { return st.Dump(next) },
	}, nil
}

// serialOpset runs op-set g through the synchronous path.
func (e *env) serialOpset(ps *pass, g int, set *tgd.Set, insertPct int, durable bool, v variant) error {
	seed := e.opSeed(g, 0)
	ops := e.genOps(e.sc.ops, insertPct, seed)
	var user chase.User = simuser.New(uint64(seed))
	dir := ""
	if durable {
		dir = filepath.Join(e.dataRoot, "opset")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	ckpt0, ckptNS0 := ckptCount.Value(), ckptWait.Sum()

	loadStart := time.Now()
	var tg *serialTarget
	var err error
	if v.tr != nil || v.bare {
		tg, err = e.pipelineTarget(set, dir, user, v.tr)
	} else if repo, rerr := e.openRepo(dir, set); rerr == nil {
		tg = repoTarget(repo, user)
	} else {
		err = rerr
	}
	if err != nil {
		return err
	}
	ps.load += time.Since(loadStart)

	// The latency buffers belong to the run, not the pass, so that the
	// measured heap holds the same few kilobytes of them in every op-set.
	e.lat = slices.Grow(e.lat[:0], len(ops))
	e.qlat = slices.Grow(e.qlat[:0], len(ops)/e.sc.queryEvery+1)
	r := ps.timed(len(ops), func() int {
		for i, op := range ops {
			t := time.Now()
			err := tg.apply(op)
			e.lat = append(e.lat, time.Since(t))
			if err != nil {
				ps.problem("op-set %d update %d: %v", g, i+1, err)
			}
			if (i+1)%e.sc.queryEvery == 0 {
				t = time.Now()
				err := tg.certain(e.cqs[(i/e.sc.queryEvery)%len(e.cqs)])
				e.qlat = append(e.qlat, time.Since(t))
				if err != nil {
					ps.problem("op-set %d query after update %d: %v", g, i+1, err)
				}
			}
		}
		return len(ops)
	})
	ps.liveHeap()
	for i, q := range []float64{0.5, 0.9, 0.99, 1} {
		r.updateUS[i] = quantileUS(e.lat, q)
	}
	for i, q := range []float64{0.5, 0.99} {
		r.queryUS[i] = quantileUS(e.qlat, q)
	}

	if n := violations(tg.store, set); n != 0 {
		ps.problem("op-set %d: %d violations", g, n)
	}
	dump := tg.dump()
	ps.dumps = append(ps.dumps, sha256.Sum256([]byte(dump)))
	if v.tr != nil {
		ps.final, ps.ops = tg.store, ops
	}
	if err := tg.close(); err != nil {
		ps.problem("close: %v", err)
	}
	if durable {
		t := time.Now()
		repo, err := core.NewWithOptions(e.u.Schema, set, core.Options{DataDir: dir})
		if err != nil {
			ps.problem("reopen: %v", err)
			return nil
		}
		ps.recovery += time.Since(t)
		ps.replayed += repo.Recovery().BatchesReplayed
		if repo.Dump() != dump {
			ps.problem("reopened repository dumps differently")
		}
		if n := len(repo.Violations()); n != 0 {
			ps.problem("%d violations after reopen", n)
		}
		if err := repo.Close(); err != nil {
			ps.problem("close after reopen: %v", err)
		}
		ps.checkpoints += ckptCount.Value() - ckpt0
		ps.checkpointNS += ckptWait.Sum() - ckptNS0
	}
	return nil
}

// schedSpec describes a scheduler workload: windows batches of ops
// updates, each all in flight at once on a fresh backend.
type schedSpec struct {
	set       *tgd.Set
	ops       int
	insertPct int
	windows   int
	workers   int // 0 = the cooperative scheduler
}

// schedOpset runs op-set g of a scheduler workload and checks every
// window against the serial oracle (Theorem 4.4: the final facts equal a
// serial execution's up to a renaming of labeled nulls) — directly where
// v.oracle or the workers ask for it, and otherwise through the digest
// run compares with that of a pass that was checked directly. A traced
// pass's oracle timings are the baseline of cc.overhead_us_per_run.
func (e *env) schedOpset(ps *pass, g int, spec schedSpec, v variant) error {
	if v.workers > 0 {
		spec.workers = v.workers
	}
	for w := 0; w < spec.windows; w++ {
		seed := e.opSeed(g, w)
		ops := e.genOps(spec.ops, spec.insertPct, seed)
		loadStart := time.Now()
		st, err := e.u.NewBackend()
		if err != nil {
			return err
		}
		ps.load += time.Since(loadStart)

		var tracker cc.Tracker = cc.Coarse{}
		if v.precise {
			tracker = cc.Precise{}
		}
		backend, user := st, chase.User(simuser.New(uint64(seed)))
		root := v.tr.begin("cc.run", 0, 0)
		if v.tr != nil {
			backend = &tracedBackend{Backend: st, tr: v.tr, parent: root, commit: new(atomic.Int64)}
			tracker = &tracedTracker{inner: tracker, tr: v.tr}
			user = &tracedUser{inner: user, tr: v.tr, parent: root}
		}
		cfg := cc.Config{Tracker: tracker, Policy: cc.PolicyRoundRobinStep, User: user, Workers: spec.workers}
		var m cc.Metrics
		var runErr error
		ps.timed(len(ops), func() int {
			if spec.workers > 0 {
				m, runErr = cc.NewParallelScheduler(backend, spec.set, cfg).Run(ops)
			} else {
				m, runErr = cc.NewScheduler(backend, spec.set, cfg).Run(ops)
			}
			return m.Runs
		})
		v.tr.end(root)
		addMetrics(&ps.m, m)
		if runErr != nil {
			ps.problem("op-set %d window %d: %v", g, w, runErr)
			continue
		}
		if w == spec.windows-1 {
			ps.liveHeap()
			if v.tr != nil {
				ps.final, ps.ops = st, ops
			}
		}
		if n := violations(st, spec.set); n != 0 {
			ps.problem("op-set %d window %d: %d violations", g, w, n)
		}
		if spec.workers == 0 {
			ps.dumps = append(ps.dumps, sha256.Sum256([]byte(st.Dump(allReader))))
		}
		if v.oracle || spec.workers > 0 {
			ref, err := e.u.NewBackend()
			if err != nil {
				return err
			}
			t := time.Now()
			_, err = serial.Execute(ref, spec.set, ops, simuser.New(uint64(seed)))
			ps.oracleWall += time.Since(t)
			ps.oracleUpdates += len(ops)
			if err != nil {
				ps.problem("op-set %d window %d: serial oracle: %v", g, w, err)
				continue
			}
			eq, err := serial.Equivalent(st.Snap(allReader).VisibleFacts(), ref.Snap(allReader).VisibleFacts())
			if err != nil || !eq {
				ps.problem("op-set %d window %d: final facts differ from the serial oracle (%v)", g, w, err)
			}
		}
	}
	return nil
}

func addMetrics(dst *cc.Metrics, m cc.Metrics) {
	dst.Submitted += m.Submitted
	dst.Runs += m.Runs
	dst.Aborts += m.Aborts
	dst.DirectAbortRequests += m.DirectAbortRequests
	dst.CascadingAbortRequests += m.CascadingAbortRequests
	dst.RemovalAbortRequests += m.RemovalAbortRequests
	dst.UserPolls += m.UserPolls
	dst.CommitBatches += m.CommitBatches
	if m.MaxCommitBatch > dst.MaxCommitBatch {
		dst.MaxCommitBatch = m.MaxCommitBatch
	}
}

// probeViolations replays the seeded violation query the chase issues
// after every write, directly against the post-pass snapshot, and
// returns the durations.
func probeViolations(st storage.Backend, set *tgd.Set, ops []chase.Op, limit int) []int64 {
	eng := query.NewEngine(st.Snap(allReader))
	var out []int64
	for _, op := range ops {
		if op.Kind != chase.OpInsert {
			continue
		}
		for _, m := range set.WithLHSRelation(op.Tuple.Rel) {
			t := time.Now()
			eng.ViolationsSeeded(m, op.Tuple.Rel, op.Tuple.Vals, query.SeedLHS)
			out = append(out, int64(time.Since(t)))
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}
