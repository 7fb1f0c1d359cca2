package vfs

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op identifies a filesystem operation class for fault injection.
type Op uint8

const (
	// OpOpen is OpenFile without O_CREATE (reopening an existing
	// segment, as repair does).
	OpOpen Op = iota
	// OpCreate is OpenFile with O_CREATE (new segments, checkpoint
	// temp files).
	OpCreate
	// OpWrite is File.Write (frame appends, checkpoint bodies).
	OpWrite
	// OpSync is File.Sync (the fsync behind every commit ack).
	OpSync
	// OpRead is ReadFile (recovery reading checkpoints and segments).
	OpRead
	// OpRename is Rename (checkpoint install).
	OpRename
	// OpRemove is Remove (segment retirement, orphan cleanup).
	OpRemove
	// OpTruncate is File.Truncate and FS.Truncate (torn-tail repair).
	OpTruncate
	// OpSyncDir is SyncDir (directory durability after create, rename,
	// unlink).
	OpSyncDir
	opCount
)

var opNames = [opCount]string{
	"open", "create", "write", "sync", "read", "rename", "remove",
	"truncate", "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Rule is one scripted fault. Rules are consulted in the order they
// were scripted; the first live match fires.
type Rule struct {
	// Op is the operation class the rule applies to.
	Op Op
	// Path, when non-empty, restricts the rule to operations whose
	// target path contains it as a substring (e.g. "wal-" to fault
	// segment files but not checkpoints).
	Path string
	// After lets this many matching calls through before the rule
	// starts firing.
	After int
	// Count is how many times the rule fires; <= 0 means forever.
	Count int
	// Err is the injected error. Leave nil with Short or FlipBit set
	// for data faults that "succeed".
	Err error
	// Short, for OpWrite, writes only the first Short bytes of the
	// payload to the underlying file before returning the error — a
	// torn write. Zero writes nothing.
	Short int
	// FlipBit, for OpRead, flips one bit of the returned data (bit
	// FlipBit%8 of byte (FlipBit/8)%len) without reporting an error —
	// silent bit-rot. Meaningful only when Err is nil.
	FlipBit int

	seen  int
	fired int
}

type probFault struct {
	op Op
	p  float64
	mk func() error
}

// FaultFS wraps another FS and injects faults according to scripted
// rules and probabilistic settings. It is safe for concurrent use.
type FaultFS struct {
	inner FS

	mu    sync.Mutex
	rules []*Rule
	probs []probFault
	rng   *rand.Rand
	free  int64
	ops   [opCount]int64
}

// NewFaultFS wraps inner with an empty fault schedule. The seed drives
// the probabilistic faults (and only them — scripted rules are
// deterministic).
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		free:  -1,
	}
}

// Script appends rules to the schedule.
func (f *FaultFS) Script(rules ...Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range rules {
		r := rules[i]
		f.rules = append(f.rules, &r)
	}
}

// Probability makes every matching operation fail with mk()'s error
// with probability p, independent of the scripted rules.
func (f *FaultFS) Probability(op Op, p float64, mk func() error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probs = append(f.probs, probFault{op: op, p: p, mk: mk})
}

// Clear drops all scripted rules and probabilistic faults, turning the
// FaultFS back into a passthrough (SetFreeBytes scripting persists).
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.probs = nil
}

// SetFreeBytes scripts the FreeBytes answer; -1 restores passthrough.
func (f *FaultFS) SetFreeBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = n
}

// OpCount reports how many operations of the class were attempted
// (faulted or not).
func (f *FaultFS) OpCount(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// fault records one operation and returns the fired rule, or nil to
// pass the operation through. The returned Rule is a copy and safe to
// read without the lock.
func (f *FaultFS) fault(op Op, path string) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[op]++
	for _, r := range f.rules {
		if r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		cp := *r
		return &cp
	}
	for _, p := range f.probs {
		if p.op == op && f.rng.Float64() < p.p {
			return &Rule{Op: op, Err: p.mk()}
		}
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if r := f.fault(op, name); r != nil {
		return nil, injected(r, "open "+name)
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	// What the file held when opened counts as durable.
	fi, err := f.inner.Stat(name)
	if err != nil {
		inner.Close()
		return nil, err
	}
	return &faultFile{File: inner, fs: f, size: fi.Size(), synced: fi.Size()}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if r := f.fault(OpRead, name); r != nil {
		if r.Err != nil {
			return nil, r.Err
		}
		data, err := f.inner.ReadFile(name)
		if err != nil || len(data) == 0 {
			return data, err
		}
		i := r.FlipBit
		if i < 0 {
			i = 0
		}
		data[(i/8)%len(data)] ^= 1 << (i % 8)
		return data, nil
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	return f.inner.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Remove(name string) error {
	if r := f.fault(OpRemove, name); r != nil {
		return injected(r, "remove "+name)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if r := f.fault(OpRename, newpath); r != nil {
		return injected(r, "rename "+newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if r := f.fault(OpTruncate, name); r != nil {
		return injected(r, "truncate "+name)
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if r := f.fault(OpSyncDir, dir); r != nil {
		return injected(r, "syncdir "+dir)
	}
	return f.inner.SyncDir(dir)
}

func (f *FaultFS) FreeBytes(dir string) (int64, error) {
	f.mu.Lock()
	free := f.free
	f.mu.Unlock()
	if free >= 0 {
		return free, nil
	}
	return f.inner.FreeBytes(dir)
}

// injected resolves a fired rule to its error, defaulting to EIO.
func injected(r *Rule, what string) error {
	if r.Err != nil {
		return r.Err
	}
	return fmt.Errorf("vfs: injected fault on %s: %w", what, syscall.EIO)
}

// faultFile intercepts the write-path operations of an open file. It
// tracks the file's length and its length at the last successful sync,
// so that a failed sync can drop what it failed to make durable. The
// model is an append-only file, as every file the log syncs is.
type faultFile struct {
	File
	fs *FaultFS

	mu     sync.Mutex
	size   int64
	synced int64
}

// Write passes p, or on a torn write its prefix, straight to the inner
// file and keeps no reference to it, as File requires.
func (f *faultFile) Write(p []byte) (int, error) {
	r := f.fs.fault(OpWrite, f.Name())
	if r == nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		n, err := f.File.Write(p)
		f.size += int64(n)
		return n, err
	}
	n := 0
	if r.Short > 0 {
		f.mu.Lock()
		n, _ = f.File.Write(p[:min(r.Short, len(p))])
		f.size += int64(n)
		f.mu.Unlock()
	}
	return n, injected(r, "write "+f.Name())
}

// Sync faults are injected *instead of* the underlying fsync and model
// a kernel whose writeback failed: the dirty pages are dropped, so the
// bytes written since the last successful sync are gone, and a later
// sync that succeeds does not bring them back.
func (f *faultFile) Sync() error {
	if r := f.fs.fault(OpSync, f.Name()); r != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if err := f.File.Truncate(f.synced); err != nil {
			return err
		}
		f.size = f.synced
		return injected(r, "sync "+f.Name())
	}
	f.mu.Lock()
	at := f.size
	f.mu.Unlock()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	// A truncate that ran during the sync may have cut below at.
	f.synced = max(f.synced, min(at, f.size))
	f.mu.Unlock()
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	if r := f.fs.fault(OpTruncate, f.Name()); r != nil {
		return injected(r, "truncate "+f.Name())
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.size = size
	f.synced = min(f.synced, size)
	return nil
}
