package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// This file adds the decision-inbox control records to the log: a
// blocked single-user update parks instead of failing, and the park —
// plus every answer a curator later supplies and the final resume —
// is a durable log record, so the suspended human-in-the-loop chase
// survives process restarts.
//
// Control frames interleave with commit-batch frames in the segments:
//
//	park    := kindPark u8 | parkID uvarint | op
//	answer  := kindAnswer u8 | parkID uvarint | ordinal uvarint
//	         | ctxLen uvarint | context | option uvarint
//	resume  := kindResume u8 | parkID uvarint | aborted u8
//	op      := opKind u8 | relIdx uvarint | vals     (insert, delete)
//	         | opKind u8 | tupleID uvarint           (delete-id)
//	         | opKind u8 | value | value             (replace-null)
//
// Park IDs are minted monotonically and never reused, which is what
// makes replay idempotent against checkpoints: a checkpoint carries
// the live parked set plus the next park ID, so recovery skips any
// park frame below that ID (the entry is either in the checkpoint or
// was resumed before it), applies an answer only at its recorded
// ordinal, and a resume simply deletes the entry.
//
// A parked update's storage writes are rolled back at park time — only
// the initial operation and the ordered answers are durable. Resume
// re-runs the chase from the initial operation and matches the
// recorded answers to its questions by decision context, under the
// rule stated on inbox.Replay; the enumeration of frontier options is
// a deterministic function of database content, so the (context,
// option index) pairs re-resolve exactly. That replay design is also why a
// resume frame can be appended after the commit batch it concludes:
// re-running a resumed update whose batch already committed finds no
// violations (the committed instance is fully chased and initial
// operations are set-semantics idempotent) and terminates with no
// writes, so recovery heals a crash between commit and resume frame
// on its own.
//
// Control appends are fsynced inline, under the manager's mutex (they
// are human-paced and rare, so sharing a covering sync with commit
// batches buys nothing) — an AppendPark or AppendAnswer that returned
// is durable.

const (
	kindPark   = 2
	kindAnswer = 3
	kindResume = 4
)

// ParkedUpdate is a durably parked update: the initial operation to
// replay plus the answers recorded so far, oldest first (inbox.Replay
// states how a resume consumes them).
type ParkedUpdate struct {
	ID      int64
	Op      chase.Op
	Answers []inbox.Answer
}

func (p *ParkedUpdate) clone() ParkedUpdate {
	return ParkedUpdate{ID: p.ID, Op: p.Op,
		Answers: append([]inbox.Answer(nil), p.Answers...)}
}

// encodeOp renders an initial operation. Cause is presentation-only
// provenance (Update.Reset stamps "initial operation" on replay) and
// is not persisted.
func (c *codec) encodeOp(dst []byte, op chase.Op) ([]byte, error) {
	dst = append(dst, byte(op.Kind))
	switch op.Kind {
	case chase.OpInsert, chase.OpDelete:
		ri, ok := c.idx[op.Tuple.Rel]
		if !ok {
			return dst, fmt.Errorf("wal: parked operation on undeclared relation %s", op.Tuple.Rel)
		}
		return encodeVals(binary.AppendUvarint(dst, uint64(ri)), op.Tuple.Vals), nil
	case chase.OpDeleteID:
		return binary.AppendUvarint(dst, uint64(op.ID)), nil
	case chase.OpReplaceNull:
		return encodeValue(encodeValue(dst, op.Null), op.With), nil
	}
	return dst, fmt.Errorf("wal: cannot persist operation kind %v", op.Kind)
}

func (r *reader) op(rels []string) (chase.Op, error) {
	kind, err := r.byte()
	if err != nil {
		return chase.Op{}, err
	}
	switch chase.OpKind(kind) {
	case chase.OpInsert, chase.OpDelete:
		ri, err := r.uvarint()
		if err != nil {
			return chase.Op{}, err
		}
		if int(ri) >= len(rels) {
			return chase.Op{}, fmt.Errorf("wal: relation index %d out of range", ri)
		}
		vals, err := r.vals()
		if err != nil {
			return chase.Op{}, err
		}
		t := model.Tuple{Rel: rels[ri], Vals: vals}
		if chase.OpKind(kind) == chase.OpInsert {
			return chase.Insert(t), nil
		}
		return chase.Delete(t), nil
	case chase.OpDeleteID:
		id, err := r.uvarint()
		if err != nil {
			return chase.Op{}, err
		}
		return chase.DeleteID(storage.TupleID(id)), nil
	case chase.OpReplaceNull:
		x, err := r.value()
		if err != nil {
			return chase.Op{}, err
		}
		with, err := r.value()
		if err != nil {
			return chase.Op{}, err
		}
		return chase.ReplaceNull(x, with), nil
	default:
		return chase.Op{}, fmt.Errorf("wal: unknown operation kind %d", kind)
	}
}

func (c *codec) encodePark(dst []byte, id int64, op chase.Op) ([]byte, error) {
	return c.encodeOp(binary.AppendUvarint(append(dst, kindPark), uint64(id)), op)
}

func encodeAnswer(dst []byte, id int64, ordinal int, ctx string, option int) []byte {
	dst = binary.AppendUvarint(append(dst, kindAnswer), uint64(id))
	dst = binary.AppendUvarint(dst, uint64(ordinal))
	dst = binary.AppendUvarint(dst, uint64(len(ctx)))
	return binary.AppendUvarint(append(dst, ctx...), uint64(option))
}

func encodeResume(dst []byte, id int64, aborted bool) []byte {
	var flag byte
	if aborted {
		flag = 1
	}
	return append(binary.AppendUvarint(append(dst, kindResume), uint64(id)), flag)
}

// parkedSet is the mutable parked-update index the manager and the
// recovery scan share: entries keyed by park ID plus the next ID to
// mint. applyControl replays one control payload idempotently.
type parkedSet struct {
	entries map[int64]*ParkedUpdate
	nextID  int64
}

func newParkedSet() *parkedSet {
	return &parkedSet{entries: make(map[int64]*ParkedUpdate), nextID: 1}
}

// seed installs a checkpoint's parked section as the replay base.
func (ps *parkedSet) seed(nextID int64, parked []ParkedUpdate) {
	if nextID > ps.nextID {
		ps.nextID = nextID
	}
	for i := range parked {
		p := parked[i].clone()
		ps.entries[p.ID] = &p
	}
}

// applyControl replays one control frame. Frames already reflected in
// the checkpoint base are skipped: a park below the base's next ID, an
// answer at an ordinal the entry already holds, a resume of an entry
// already gone.
func (ps *parkedSet) applyControl(payload []byte, rels []string) error {
	r := reader{payload}
	kind, err := r.byte()
	if err != nil {
		return err
	}
	idRaw, err := r.uvarint()
	if err != nil {
		return err
	}
	id := int64(idRaw)
	switch kind {
	case kindPark:
		op, err := r.op(rels)
		if err != nil {
			return err
		}
		if len(r.b) != 0 {
			return fmt.Errorf("wal: %d trailing bytes in park record", len(r.b))
		}
		if id >= ps.nextID {
			ps.entries[id] = &ParkedUpdate{ID: id, Op: op}
			ps.nextID = id + 1
		}
	case kindAnswer:
		ord, err := r.uvarint()
		if err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		ctx, err := r.bytes(n)
		if err != nil {
			return err
		}
		opt, err := r.uvarint()
		if err != nil {
			return err
		}
		if len(r.b) != 0 {
			return fmt.Errorf("wal: %d trailing bytes in answer record", len(r.b))
		}
		if e, ok := ps.entries[id]; ok && int(ord) == len(e.Answers) {
			e.Answers = append(e.Answers, inbox.Answer{Context: string(ctx), Option: int(opt)})
		}
	case kindResume:
		if _, err := r.byte(); err != nil {
			return err
		}
		if len(r.b) != 0 {
			return fmt.Errorf("wal: %d trailing bytes in resume record", len(r.b))
		}
		delete(ps.entries, id)
	default:
		return fmt.Errorf("wal: unknown control kind %d", kind)
	}
	return nil
}

// snapshot returns the parked entries sorted by ID, deep-copied.
func (ps *parkedSet) snapshot() []ParkedUpdate {
	out := make([]ParkedUpdate, 0, len(ps.entries))
	for _, e := range ps.entries {
		out = append(out, e.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AppendPark durably records a parked update: the initial operation
// under a freshly minted park ID. The returned ID addresses the
// update's answers and resume; the frame (like every control frame)
// is fsynced before AppendPark returns.
func (m *Manager) AppendPark(op chase.Op) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.parked.nextID
	if err := m.appendControlLocked(func(dst []byte) ([]byte, error) {
		return m.cdc.encodePark(dst, id, op)
	}); err != nil {
		return 0, err
	}
	m.parked.nextID = id + 1
	m.parked.entries[id] = &ParkedUpdate{ID: id, Op: op}
	return id, nil
}

// AppendAnswer durably records one frontier answer for a parked
// update, at the next ordinal in its answer sequence.
func (m *Manager) AppendAnswer(id int64, ctx string, option int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.parked.entries[id]
	if !ok {
		return fmt.Errorf("wal: answer for unknown parked update %d", id)
	}
	ordinal := len(e.Answers)
	if err := m.appendControlLocked(func(dst []byte) ([]byte, error) {
		return encodeAnswer(dst, id, ordinal, ctx, option), nil
	}); err != nil {
		return err
	}
	e.Answers = append(e.Answers, inbox.Answer{Context: ctx, Option: option})
	return nil
}

// AppendResume durably concludes a parked update: resolved (its
// replayed chase terminated and committed) or aborted (cancelled by a
// curator or a deadline policy). The entry leaves the parked set.
func (m *Manager) AppendResume(id int64, aborted bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.appendControlLocked(func(dst []byte) ([]byte, error) {
		return encodeResume(dst, id, aborted), nil
	}); err != nil {
		return err
	}
	delete(m.parked.entries, id)
	return nil
}

// Parked returns the durably parked updates, sorted by park ID.
func (m *Manager) Parked() []ParkedUpdate {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parked.snapshot()
}

// appendControlLocked appends one control frame, its payload encoded
// in place in the manager's frame buffer, and (under SyncAlways)
// fsyncs it synchronously before returning. Callers hold m.mu; the
// fsync — being a covering sync of the active segment — advances the
// synced frontier over every batch appended so far.
//
// An in-flight covering sync is waited out *before* the frame is
// written, and m.mu is then held through the inline fsync, so the
// control frame is the last bytes in the segment when its sync runs:
// a sync failure can truncate exactly the frame back off, keeping the
// durable log free of control records their callers were told failed
// (no ghost parks on recovery). While a failed covering sync's rescue
// runs the append bounces with ErrReadOnly, the state the rescue ends
// in, instead of interleaving with it. The in-memory bookkeeping
// (ctrlSeq, per-segment control watermarks, checkpoint pressure) only
// advances once the frame is durable.
func (m *Manager) appendControlLocked(encode func([]byte) ([]byte, error)) error {
	for m.syncing {
		m.syncCond.Wait()
	}
	// The wait released m.mu; (re-)check everything.
	if m.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	switch m.state {
	case StatePoisoned:
		return fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
	case StateDegraded:
		return fmt.Errorf("wal: control append rejected while read-only (%s): %w", m.reason, ErrReadOnly)
	}
	if m.rescuing {
		return fmt.Errorf("wal: control append rejected during a sync-failure rescue: %w", ErrReadOnly)
	}
	frame, err := appendFrame(m.takeFrameLocked(), encode)
	defer m.putFrameLocked(frame)
	if err != nil {
		return err
	}
	if err := m.ensureSegmentLocked(int64(len(frame))); err != nil {
		return err
	}
	base := m.size
	if err := m.writeFrameLocked(frame, "control"); err != nil {
		return err
	}
	m.size += int64(len(frame))
	if m.opts.Sync != SyncAlways {
		m.sinceCkpt += int64(len(frame))
		m.ctrlSeq++
		m.segCtrl[m.f.Name()] = m.ctrlSeq
		return nil
	}
	if err := m.f.Sync(); err != nil {
		// The frame is not durable and must not become replayable:
		// cut it back off. The segment's earlier unsynced region is
		// suspect now (the failed fsync may have dropped its pages).
		if terr := m.f.Truncate(base); terr != nil {
			return m.poisonLocked(fmt.Errorf("wal: control sync failed (%v) and the frame could not be cut back off (%v)", err, terr))
		}
		m.size = base
		m.suspect = true
		return m.degradeLocked("control sync failed", vfs.IsNoSpace(err), err)
	}
	m.sinceCkpt += int64(len(frame))
	m.ctrlSeq++
	m.segCtrl[m.f.Name()] = m.ctrlSeq
	m.syncs++
	if m.syncedBatch < m.batches {
		m.syncedBatch = m.batches
		m.syncCond.Broadcast()
	}
	return nil
}
