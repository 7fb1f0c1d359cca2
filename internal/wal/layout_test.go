package wal_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"youtopia/internal/core"
	"youtopia/internal/model"
	"youtopia/internal/tgd"
	"youtopia/internal/wal"
)

// treeDigest renders every entry under root — path, kind, and for
// files a content hash — so a test can assert a directory was left
// byte-for-byte unchanged.
func treeDigest(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			fmt.Fprintf(&b, "d %s\n", rel)
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "f %s %x\n", rel, sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOpenShardedLayoutGuards: a data directory in the per-partition
// layout of the retired relation-sharded store (shard-<k>
// subdirectories, each a log of its own) is refused by every entry
// point with ErrShardedLayout naming the directory, and left exactly
// as it was — never booted as an empty repository beside the data.
func TestOpenShardedLayoutGuards(t *testing.T) {
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	dir := filepath.Join(t.TempDir(), "dir")

	// shard-0 holds a real segment with one committed batch; shard-1
	// is the empty leftover of an interrupted first open.
	mgr, st, err := wal.Open(filepath.Join(dir, "shard-0"), schema, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Insert(1, model.NewTuple("A", model.Const("v"))); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "shard-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-0", "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("shard-0 holds no segment")
	}
	before := treeDigest(t, dir)

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, wal.ErrShardedLayout) {
			t.Fatalf("%s: got %v, want ErrShardedLayout", what, err)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Fatalf("%s: error %q does not name %s", what, err, dir)
		}
		if after := treeDigest(t, dir); after != before {
			t.Fatalf("%s changed the directory:\n%s\nwant:\n%s", what, after, before)
		}
	}
	_, _, err = wal.Open(dir, schema, wal.Options{})
	refused("Open", err)
	_, _, err = wal.Recover(dir, schema)
	refused("Recover", err)
	set, err := tgd.NewSet()
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.NewWithOptions(schema, set, core.Options{DataDir: dir})
	refused("core.NewWithOptions", err)
}
