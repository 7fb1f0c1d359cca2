package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// A span is one call into a layer, recorded from outside the program:
// the decorators below sit on interfaces the program already exposes
// (storage.Backend, cc.Tracker, chase.User, vfs.FS) and the serial
// workloads assemble core.ApplyTraced's pipeline by hand so its stages
// can be bracketed. Nothing inside internal/ is touched.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the 1-based index of the span this call ran inside, 0
	// for a root, and asyncParent for a call on a goroutine of the
	// program's own (the log's syncer), which overlaps the blocking
	// path instead of nesting in it.
	Parent int `json:"parent"`
	Update int `json:"update"`
}

const asyncParent = -1

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the same pipeline code runs bare.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) begin(name string, parent, update int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Update: update})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanSummary is what the per-layer metrics read off a traced pass.
type spanSummary struct {
	// rootNS is the summed duration of root spans: the blocking path.
	rootNS int64
	// selfNS is a span's duration minus the part its children cover,
	// summed per layer over the blocking path; async spans are left out
	// because the blocking path already waits for them (wal.ack_wait
	// covers wal.sync).
	selfNS map[string]int64
	// selfName is the same self time per span name.
	selfName map[string]int64
	// inclNS, count and durs are per span name, async spans included.
	inclNS map[string]int64
	count  map[string]int64
	durs   map[string][]int64
}

func (t *tracer) summarize() spanSummary {
	s := spanSummary{
		selfNS: map[string]int64{}, selfName: map[string]int64{}, inclNS: map[string]int64{},
		count: map[string]int64{}, durs: map[string][]int64{},
	}
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range t.spans {
		d := sp.End - sp.Start
		s.inclNS[sp.Name] += d
		s.count[sp.Name]++
		s.durs[sp.Name] = append(s.durs[sp.Name], d)
		if sp.Parent == asyncParent {
			continue
		}
		if sp.Parent == 0 {
			s.rootNS += d
		}
		s.selfNS[layerOf(sp.Name)] += d - child[i+1]
		s.selfName[sp.Name] += d - child[i+1]
	}
	return s
}

// schedSelfNS is the worker time of scheduler runs spent outside every
// decorated call: with n workers a cc.run span holds n times its
// duration of worker time, and the children are summed over workers.
func (s spanSummary) schedSelfNS(workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	return s.selfName["cc.run"] + int64(workers-1)*s.inclNS["cc.run"]
}

// tracedBackend brackets the storage calls that do work. The cheap
// getters (Schema, FreshNull, CurrentSeq, RelSeq, Committed, ...) pass
// through the embedded interface unrecorded: a span around each would
// cost more than the call.
type tracedBackend struct {
	storage.Backend
	tr     *tracer
	parent int
	// commit, shared with the tracedFS of the same pass, is the span of
	// the CommitBatchAsync in progress: the log appends inside it, on
	// the caller's goroutine.
	commit *atomic.Int64
}

// under returns a view of the same backend whose spans nest in parent;
// views make nesting explicit, so it holds on any goroutine.
func (b *tracedBackend) under(parent int) *tracedBackend {
	v := *b
	v.parent = parent
	return &v
}

func (b *tracedBackend) Snap(reader int) *storage.Snapshot {
	id := b.tr.begin("storage.snap", b.parent, reader)
	defer b.tr.end(id)
	return b.Backend.Snap(reader)
}

func (b *tracedBackend) EpochSnap() *storage.Snapshot {
	id := b.tr.begin("storage.snap", b.parent, 0)
	defer b.tr.end(id)
	return b.Backend.EpochSnap()
}

func (b *tracedBackend) Insert(writer int, t model.Tuple) (storage.TupleID, storage.WriteRec, bool, error) {
	id := b.tr.begin("storage.write", b.parent, writer)
	defer b.tr.end(id)
	return b.Backend.Insert(writer, t)
}

func (b *tracedBackend) Delete(writer int, tid storage.TupleID) (storage.WriteRec, bool, error) {
	id := b.tr.begin("storage.write", b.parent, writer)
	defer b.tr.end(id)
	return b.Backend.Delete(writer, tid)
}

func (b *tracedBackend) DeleteContent(writer int, t model.Tuple) ([]storage.WriteRec, error) {
	id := b.tr.begin("storage.write", b.parent, writer)
	defer b.tr.end(id)
	return b.Backend.DeleteContent(writer, t)
}

func (b *tracedBackend) ReplaceNull(writer int, x, to model.Value) ([]storage.WriteRec, error) {
	id := b.tr.begin("storage.write", b.parent, writer)
	defer b.tr.end(id)
	return b.Backend.ReplaceNull(writer, x, to)
}

func (b *tracedBackend) Abort(writer int) {
	id := b.tr.begin("storage.abort", b.parent, writer)
	defer b.tr.end(id)
	b.Backend.Abort(writer)
}

func (b *tracedBackend) committing(writers []int) func() {
	first := 0
	if len(writers) > 0 {
		first = writers[0]
	}
	id := b.tr.begin("storage.commit", b.parent, first)
	b.commit.Store(int64(id))
	return func() {
		b.commit.Store(0)
		b.tr.end(id)
	}
}

func (b *tracedBackend) Commit(writer int) error {
	defer b.committing([]int{writer})()
	return b.Backend.Commit(writer)
}

func (b *tracedBackend) CommitBatch(writers []int) error {
	defer b.committing(writers)()
	return b.Backend.CommitBatch(writers)
}

func (b *tracedBackend) CommitBatchAsync(writers []int) (storage.CommitAck, error) {
	defer b.committing(writers)()
	return b.Backend.CommitBatchAsync(writers)
}

func (b *tracedBackend) WritesOf(writer int) []storage.WriteRec {
	id := b.tr.begin("storage.uncommitted_scan", b.parent, writer)
	defer b.tr.end(id)
	return b.Backend.WritesOf(writer)
}

func (b *tracedBackend) UncommittedWrites() []storage.WriteRec {
	id := b.tr.begin("storage.uncommitted_scan", b.parent, 0)
	defer b.tr.end(id)
	return b.Backend.UncommittedWrites()
}

func (b *tracedBackend) UncommittedWritesOf(rel string) []storage.WriteRec {
	id := b.tr.begin("storage.uncommitted_scan", b.parent, 0)
	defer b.tr.end(id)
	return b.Backend.UncommittedWritesOf(rel)
}

func (b *tracedBackend) UncommittedWritersOf(rel string) []int {
	id := b.tr.begin("storage.uncommitted_scan", b.parent, 0)
	defer b.tr.end(id)
	return b.Backend.UncommittedWritersOf(rel)
}

// tracedTracker brackets the dependency tracker of §5.1. The scheduler
// hands the tracker the backend it was built over, so the storage calls
// a tracker makes are re-parented under the tracker's span.
type tracedTracker struct {
	inner cc.Tracker
	tr    *tracer
}

func (t *tracedTracker) Name() string { return t.inner.Name() }

func (t *tracedTracker) view(st storage.Backend, parent int) storage.Backend {
	if tb, ok := st.(*tracedBackend); ok {
		return tb.under(parent)
	}
	return st
}

func (t *tracedTracker) OnRead(st storage.Backend, u *cc.Txn, q query.ReadQuery) {
	id := t.tr.begin("cc.track", rootOf(st), u.Number)
	defer t.tr.end(id)
	t.inner.OnRead(t.view(st, id), u, q)
}

func (t *tracedTracker) Cascade(st storage.Backend, aborted *cc.Txn, active []*cc.Txn) []*cc.Txn {
	id := t.tr.begin("cc.track", rootOf(st), aborted.Number)
	defer t.tr.end(id)
	return t.inner.Cascade(t.view(st, id), aborted, active)
}

func rootOf(st storage.Backend) int {
	if tb, ok := st.(*tracedBackend); ok {
		return tb.parent
	}
	return 0
}

// tracedUser brackets the curator's frontier decisions.
type tracedUser struct {
	inner  chase.User
	tr     *tracer
	parent int
}

func (u *tracedUser) Decide(up *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, context string) (chase.Decision, bool) {
	id := u.tr.begin("user.decide", u.parent, up.Number)
	defer u.tr.end(id)
	return u.inner.Decide(up, g, opts, context)
}

func (u *tracedUser) Forget(number int) {
	if f, ok := u.inner.(chase.Forgetter); ok {
		f.Forget(number)
	}
}

// tracedFS brackets the log's writes and fsyncs. A write lands inside
// the commit in progress (on the committing goroutine); an fsync runs
// on the log's syncer goroutine and is recorded as async.
type tracedFS struct {
	vfs.FS
	tr     *tracer
	commit *atomic.Int64
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	parent := int(f.fs.commit.Load())
	if parent == 0 {
		parent = asyncParent // a checkpoint, outside any commit
	}
	id := f.fs.tr.begin("wal.write", parent, 0)
	defer f.fs.tr.end(id)
	return f.File.Write(p)
}

func (f *tracedFile) Sync() error {
	id := f.fs.tr.begin("wal.sync", asyncParent, 0)
	defer f.fs.tr.end(id)
	return f.File.Sync()
}
