package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeTemp(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func TestOsFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.dat")
	writeTemp(t, OS, path, []byte("hello"))
	data, err := OS.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if free, err := OS.FreeBytes(dir); err != nil {
		t.Fatalf("FreeBytes: %v", err)
	} else if free == 0 {
		t.Fatalf("FreeBytes = 0 on a writable temp dir")
	}
}

func TestScriptedRuleAfterCount(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	ffs.Script(Rule{Op: OpWrite, After: 2, Count: 2})
	dir := t.TempDir()
	f, err := ffs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	var got []bool
	for i := 0; i < 6; i++ {
		_, err := f.Write([]byte("x"))
		got = append(got, err != nil)
		if err != nil && !errors.Is(err, syscall.EIO) {
			t.Fatalf("write %d: injected default fault not EIO: %v", i, err)
		}
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write faults = %v, want %v", got, want)
		}
	}
	if n := ffs.OpCount(OpWrite); n != 6 {
		t.Fatalf("OpCount(OpWrite) = %d, want 6", n)
	}
}

func TestPathFilter(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	ffs.Script(Rule{Op: OpWrite, Path: "wal-"})
	dir := t.TempDir()
	seg, _ := ffs.OpenFile(filepath.Join(dir, "wal-0001.seg"), os.O_CREATE|os.O_WRONLY, 0o644)
	other, _ := ffs.OpenFile(filepath.Join(dir, "ckpt.tmp"), os.O_CREATE|os.O_WRONLY, 0o644)
	defer seg.Close()
	defer other.Close()
	if _, err := seg.Write([]byte("x")); err == nil {
		t.Fatal("matching path: want injected fault")
	}
	if _, err := other.Write([]byte("x")); err != nil {
		t.Fatalf("non-matching path faulted: %v", err)
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	ffs.Script(Rule{Op: OpWrite, Short: 3, Count: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n, werr := f.Write([]byte("abcdef"))
	if werr == nil {
		t.Fatal("torn write: want error")
	}
	if !errors.Is(werr, syscall.EIO) {
		t.Fatalf("torn write default error not EIO: %v", werr)
	}
	if n != 3 {
		t.Fatalf("torn write reported n = %d, want 3", n)
	}
	f.Close()
	data, _ := os.ReadFile(path)
	if string(data) != "abc" {
		t.Fatalf("file holds %q after torn write, want %q", data, "abc")
	}
}

func TestFlipBitBitRot(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	writeTemp(t, OS, path, []byte{0x00, 0x00, 0x00})
	ffs.Script(Rule{Op: OpRead, FlipBit: 9, Count: 1})
	data, err := ffs.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Bit 9 is bit 1 of byte 1.
	if data[0] != 0 || data[1] != 0x02 || data[2] != 0 {
		t.Fatalf("bit-rot read = %v, want bit 1 of byte 1 flipped", data)
	}
	clean, err := ffs.ReadFile(path)
	if err != nil || clean[1] != 0 {
		t.Fatalf("second read = %v, %v; rule should be exhausted", clean, err)
	}
}

// TestFailedSyncDropsUnsyncedBytes pins the honest sync fault: what was
// written since the last successful sync is gone once a sync fails, and
// a later sync that succeeds does not bring it back.
func TestFailedSyncDropsUnsyncedBytes(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	path := filepath.Join(t.TempDir(), "s")
	writeTemp(t, OS, path, []byte("old"))
	f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	contents := func() string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if _, err := f.Write([]byte("+synced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	if _, err := f.Write([]byte("+lost")); err != nil {
		t.Fatal(err)
	}
	ffs.Script(Rule{Op: OpSync, Count: 1})
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted sync = %v, want injected EIO", err)
	}
	if got := contents(); got != "old+synced" {
		t.Fatalf("after the failed sync the file holds %q, want %q", got, "old+synced")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after the fault: %v", err)
	}
	if _, err := f.Write([]byte("+next")); err != nil {
		t.Fatal(err)
	}
	if got := contents(); got != "old+synced+next" {
		t.Fatalf("after a later clean sync and write the file holds %q, want %q", got, "old+synced+next")
	}
}

func TestProbabilityAndClear(t *testing.T) {
	ffs := NewFaultFS(OS, 42)
	ffs.Probability(OpWrite, 1.0, NoSpace)
	dir := t.TempDir()
	f, err := ffs.OpenFile(filepath.Join(dir, "p"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !IsNoSpace(err) {
		t.Fatalf("p=1.0 write = %v, want the injected ENOSPC", err)
	}
	ffs.Clear()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}
}

func TestFreeBytesScripting(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	dir := t.TempDir()
	ffs.SetFreeBytes(0)
	if free, err := ffs.FreeBytes(dir); err != nil || free != 0 {
		t.Fatalf("scripted FreeBytes = %d, %v; want 0", free, err)
	}
	ffs.Clear() // Clear keeps the free-bytes script.
	if free, _ := ffs.FreeBytes(dir); free != 0 {
		t.Fatalf("Clear dropped the free-bytes script (free = %d)", free)
	}
	ffs.SetFreeBytes(-1)
	if free, err := ffs.FreeBytes(dir); err != nil || free <= 0 {
		t.Fatalf("passthrough FreeBytes = %d, %v", free, err)
	}
}

func TestRenameRemoveTruncateFaults(t *testing.T) {
	ffs := NewFaultFS(OS, 1)
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	writeTemp(t, OS, a, []byte("x"))
	ffs.Script(
		Rule{Op: OpRename, Count: 1},
		Rule{Op: OpRemove, Count: 1},
		Rule{Op: OpTruncate, Count: 1},
	)
	if err := ffs.Rename(a, filepath.Join(dir, "b")); err == nil {
		t.Fatal("rename: want injected fault")
	}
	if err := ffs.Remove(a); err == nil {
		t.Fatal("remove: want injected fault")
	}
	if err := ffs.Truncate(a, 0); err == nil {
		t.Fatal("truncate: want injected fault")
	}
	// All rules exhausted: the real operations go through.
	if err := ffs.Truncate(a, 0); err != nil {
		t.Fatalf("truncate after exhaustion: %v", err)
	}
	if err := ffs.Remove(a); err != nil {
		t.Fatalf("remove after exhaustion: %v", err)
	}
}
