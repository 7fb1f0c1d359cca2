package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// RecoveryInfo summarizes what a recovery reconstructed.
type RecoveryInfo struct {
	// CheckpointBatch is the batch index of the checkpoint the
	// recovery started from (0 = no checkpoint, empty base).
	CheckpointBatch int64
	// CheckpointTuples is the number of tuples the checkpoint restored.
	CheckpointTuples int
	// LastBatch is the index of the last complete commit batch
	// recovered; the instance is exactly the state after it.
	LastBatch int64
	// BatchesReplayed and RecordsReplayed count the log tail applied
	// on top of the checkpoint.
	BatchesReplayed int
	RecordsReplayed int
	// Repaired reports that a torn tail (or orphaned later segments)
	// had to be cut off — the signature of a crash mid-append.
	Repaired bool
	// Fresh reports that the directory held no durable state at all.
	Fresh bool
	// Parked are the updates that were durably parked awaiting frontier
	// answers when the process stopped, sorted by park ID: the
	// checkpoint's parked section plus the replayed control frames. The
	// repository re-parks them in its decision inbox on open.
	Parked []ParkedUpdate
}

// recovery is the full result of a directory scan: the rebuilt store,
// the info, and the repair plan Open executes (Recover itself never
// mutates the directory).
type recovery struct {
	st     *storage.Store
	info   RecoveryInfo
	parked *parkedSet

	truncFile   string // segment to truncate ("" = none)
	truncAt     int64
	orphans     []string // files after the stop point, to delete
	lastSeg     string   // segment appends continue in ("" = start fresh)
	lastSegSize int64    // its size after repair
}

// ckptFile / segFile pair a path with the index parsed from its name.
type ckptFile struct {
	path string
	idx  int64
}

type segFile struct {
	path  string
	first int64
}

// scanDir lists the directory's checkpoints (ascending by batch) and
// segments (ascending by first batch).
func scanDir(fsys vfs.FS, dir string) ([]ckptFile, []segFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var ckpts []ckptFile
	var segs []segFile
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
			if v, err := strconv.ParseUint(hex, 16, 64); err == nil {
				ckpts = append(ckpts, ckptFile{filepath.Join(dir, name), int64(v)})
			}
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
			if v, err := strconv.ParseUint(hex, 16, 64); err == nil {
				segs = append(segs, segFile{filepath.Join(dir, name), int64(v)})
			}
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].idx < ckpts[j].idx })
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return ckpts, segs, nil
}

// ErrShardedLayout reports a data directory holding shard-<k>
// subdirectories: the per-partition log layout of the retired
// relation-sharded store. Its committed data lives in those
// subdirectories, so Open and Recover refuse the directory rather
// than boot an empty instance beside it.
var ErrShardedLayout = errors.New("wal: directory holds a sharded log layout, which cannot be opened")

// checkLayout validates a data directory before anything touches it:
// it fails with ErrShardedLayout, naming the directory, when dir holds
// a shard-<k> subdirectory. An absent directory passes.
func checkLayout(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		k, ok := strings.CutPrefix(e.Name(), "shard-")
		if _, err := strconv.Atoi(k); ok && err == nil && e.IsDir() {
			return fmt.Errorf("%w: %s has subdirectory %s", ErrShardedLayout, dir, e.Name())
		}
	}
	return nil
}

// Recover rebuilds the committed instance a WAL directory holds into
// a fresh store over the schema: the newest decodable checkpoint,
// then every complete commit batch the segments carry beyond it, in
// order. It never modifies the directory, so it doubles as an
// inspection tool; Open performs the same scan and then repairs the
// tail. An empty or absent directory recovers to an empty store with
// Fresh set.
func Recover(dir string, schema *model.Schema) (*storage.Store, RecoveryInfo, error) {
	if err := checkLayout(vfs.OS, dir); err != nil {
		return nil, RecoveryInfo{}, err
	}
	rec, err := recoverDir(vfs.OS, dir, schema)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return rec.st, rec.info, nil
}

func recoverDir(fsys vfs.FS, dir string, schema *model.Schema) (*recovery, error) {
	cdc := newCodec(schema)
	rec := &recovery{st: storage.NewStore(schema), parked: newParkedSet()}
	ckpts, segs, err := scanDir(fsys, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			rec.info.Fresh = true
			return rec, nil
		}
		return nil, err
	}

	// Newest decodable checkpoint wins; older siblings are only kept
	// around between install and retire, so falling back is safe — the
	// segments covering the gap are deleted strictly after the newer
	// checkpoint is durable.
	ckptBatch := int64(0)
	haveCkpt := false
	for i := len(ckpts) - 1; i >= 0; i-- {
		ck, err := readCheckpoint(fsys, ckpts[i].path, cdc)
		if err != nil {
			continue
		}
		if ck.idx != ckpts[i].idx {
			continue // name/content mismatch: not ours
		}
		if err := rec.st.RestoreSnapshot(ck.tuples, ck.nullFloor, ck.idFloors); err != nil {
			return nil, fmt.Errorf("wal: restoring %s: %w", filepath.Base(ckpts[i].path), err)
		}
		ckptBatch = ck.idx
		haveCkpt = true
		rec.info.CheckpointBatch = ck.idx
		rec.info.CheckpointTuples = len(ck.tuples)
		rec.parked.seed(ck.nextParkID, ck.parked)
		break
	}
	if !haveCkpt && len(ckpts) > 0 {
		// Every checkpoint is corrupt. Even when the log reaches back
		// to batch 1 a rebuild from segments alone is not sound: a
		// checkpoint may be the only durable copy of writer-0 bootstrap
		// loads (document tuples, workload seed builds), which never
		// pass through the commit log. Refuse loudly rather than
		// silently recover a partial instance.
		return nil, fmt.Errorf("wal: none of the %d checkpoint(s) in %s decodes; refusing to rebuild from segments alone (bootstrap data may live only in checkpoints)", len(ckpts), dir)
	}

	if len(segs) > 0 && segs[0].first > ckptBatch+1 {
		return nil, fmt.Errorf("wal: gap between checkpoint (batch %d) and first segment (batch %d)",
			ckptBatch, segs[0].first)
	}

	last := ckptBatch
	prev := int64(-1) // last batch index seen in segments (-1 = none yet)
	stopped := false
	for si, sf := range segs {
		if stopped {
			rec.orphans = append(rec.orphans, sf.path)
			continue
		}
		data, err := fsys.ReadFile(sf.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		first, err := parseSegmentHeader(data, cdc.hash)
		if err != nil || first != sf.first {
			if err != nil && len(data) >= headerLen && string(data[:8]) == segMagic {
				// Intact header with the wrong schema: refuse loudly
				// rather than silently dropping data.
				return nil, err
			}
			// Torn or foreign header: everything from here on is dead.
			rec.info.Repaired = true
			rec.orphans = append(rec.orphans, sf.path)
			stopped = true
			continue
		}
		if prev >= 0 && first != prev+1 {
			if first > ckptBatch+1 {
				// Gap between segments: the tail beyond the gap is
				// unreachable without the missing batches.
				rec.info.Repaired = true
				rec.orphans = append(rec.orphans, sf.path)
				stopped = true
				continue
			}
			// The gap is wholly covered by the checkpoint — a retired
			// segment whose removal was skipped, or a suspect segment
			// dropped when a degraded log resumed. The missing batches
			// are in the checkpoint; resync the expectation.
			prev = first - 1
		}
		expected := first - 1
		if prev < 0 {
			prev = expected
		}
		off := int64(headerLen)
		body := data[headerLen:]
		for {
			payload, rest, ok := nextFrame(body)
			if !ok {
				if len(body) > 0 {
					// Torn tail: cut the segment back to the last
					// complete frame.
					rec.info.Repaired = true
					rec.truncFile = sf.path
					rec.truncAt = off
					rec.orphans = append(rec.orphans, segPaths(segs[si+1:])...)
					stopped = true
				}
				break
			}
			if len(payload) > 0 && payload[0] != kindBatch {
				// Control frame (park/answer/resume): replayed onto the
				// parked set — idempotently against the checkpoint's
				// parked section — without touching the batch sequence.
				if cerr := rec.parked.applyControl(payload, cdc.rels); cerr != nil {
					rec.info.Repaired = true
					rec.truncFile = sf.path
					rec.truncAt = off
					rec.orphans = append(rec.orphans, segPaths(segs[si+1:])...)
					stopped = true
					break
				}
				rec.info.RecordsReplayed++
				off += int64(8 + len(payload))
				body = rest
				continue
			}
			batch, err := decodeBatch(payload, cdc.rels)
			if err != nil || batch.idx != prev+1 {
				rec.info.Repaired = true
				rec.truncFile = sf.path
				rec.truncAt = off
				rec.orphans = append(rec.orphans, segPaths(segs[si+1:])...)
				stopped = true
				break
			}
			prev = batch.idx
			if batch.idx > ckptBatch {
				for _, w := range batch.recs {
					if err := rec.st.ApplyRedo(w); err != nil {
						return nil, fmt.Errorf("wal: replaying batch %d: %w", batch.idx, err)
					}
				}
				rec.info.BatchesReplayed++
				rec.info.RecordsReplayed += len(batch.recs)
				last = batch.idx
			}
			off += int64(8 + len(payload))
			body = rest
		}
		if !stopped || rec.truncFile == sf.path {
			rec.lastSeg = sf.path
			rec.lastSegSize = off
		}
	}
	rec.info.LastBatch = last
	rec.info.Fresh = !haveCkpt && len(segs) == 0
	rec.info.Parked = rec.parked.snapshot()
	return rec, nil
}

func segPaths(segs []segFile) []string {
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out
}

// readCheckpoint reads and fully validates one checkpoint file.
func readCheckpoint(fsys vfs.FS, path string, cdc *codec) (checkpointRecord, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return checkpointRecord{}, fmt.Errorf("wal: %w", err)
	}
	if len(data) < ckptHdrLen || string(data[:8]) != ckptMagic {
		return checkpointRecord{}, fmt.Errorf("wal: %s: bad checkpoint header", filepath.Base(path))
	}
	if h := binary.LittleEndian.Uint64(data[8:16]); h != cdc.hash {
		return checkpointRecord{}, fmt.Errorf("wal: %s written under a different schema", filepath.Base(path))
	}
	payload, rest, ok := nextFrame(data[ckptHdrLen:])
	if !ok || len(rest) != 0 {
		return checkpointRecord{}, fmt.Errorf("wal: %s: torn or corrupt checkpoint", filepath.Base(path))
	}
	return decodeCheckpoint(payload, cdc.rels)
}

// ClonePrefix copies the durable state of src into dst, keeping only
// commit batches with index at most upTo (and any checkpoint at or
// below it). It is a point-in-time clone: recovering dst yields the
// instance exactly as of batch upTo. The crash-recovery tests use it
// to materialize "the log as of an arbitrary commit-batch boundary";
// it equally serves as a backup primitive. dst must not exist.
func ClonePrefix(src, dst string, upTo int64) error {
	if err := os.Mkdir(dst, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	ckpts, segs, err := scanDir(vfs.OS, src)
	if err != nil {
		return err
	}
	for _, c := range ckpts {
		if c.idx > upTo {
			continue
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(c.path)), data, 0o644); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	for _, sf := range segs {
		if sf.first > upTo {
			continue
		}
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if len(data) < headerLen {
			continue
		}
		keep := int64(headerLen)
		body := data[headerLen:]
		for {
			payload, rest, ok := nextFrame(body)
			if !ok {
				break
			}
			if len(payload) > 0 && payload[0] != kindBatch {
				// Control frames carry no batch index; they ride along
				// until the batch cut stops the copy.
				keep += int64(8 + len(payload))
				body = rest
				continue
			}
			batch, err := decodeBatch(payload, nil)
			if err != nil || batch.idx > upTo {
				break
			}
			keep += int64(8 + len(payload))
			body = rest
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(sf.path)), data[:keep], 0o644); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}
