// Package vfs abstracts the filesystem surface underneath the
// durability stack so every I/O site the write-ahead log touches is
// injectable. Production code runs on the passthrough OsFS; tests and
// the chaos harness substitute a FaultFS that injects scripted and
// probabilistic faults (transient and persistent write/sync errors,
// ENOSPC, short writes, bit-rot on read) at exactly the operations the
// log performs.
//
// The interface is deliberately the slice of os that internal/wal
// actually uses — not a general filesystem. Keeping it narrow is what
// makes the fault matrix in chaostest exhaustive: every method here is
// a place a disk can fail, and every place a disk can fail is a method
// here.
package vfs

import (
	"io"
	"os"
)

// File is the open-file surface the write-ahead log drives: append
// writes, fsync, tail truncation on failed appends, and close.
type File interface {
	// Write must not retain p after it returns: the log encodes every
	// frame into one buffer it reuses for the next append.
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	// Truncate restores the file to size bytes; the log uses it to cut
	// a torn tail back to the last known-good frame boundary before
	// retrying an append.
	Truncate(size int64) error
	Close() error
	// Name reports the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the durability stack. All paths are
// interpreted exactly as the os package would.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	// Truncate cuts the named (unopened) file to size, as repair does
	// when recovery found a torn tail.
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory so renames, creates, and unlinks
	// within it are durable.
	SyncDir(dir string) error
	// FreeBytes reports the free space of the filesystem holding dir,
	// or -1 when the platform (or the wrapped FS) cannot tell. The
	// degraded-mode space recheck polls it to decide when an ENOSPC
	// degrade may be resumed automatically.
	FreeBytes(dir string) (int64, error)
}

// OsFS passes every operation through to the real filesystem.
type OsFS struct{}

// OS is the shared passthrough instance used whenever no FS is
// injected.
var OS FS = OsFS{}

func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OsFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OsFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OsFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OsFS) Remove(name string) error               { return os.Remove(name) }
func (OsFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (OsFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (OsFS) Stat(name string) (os.FileInfo, error)  { return os.Stat(name) }

func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (OsFS) FreeBytes(dir string) (int64, error) { return osFreeBytes(dir) }
