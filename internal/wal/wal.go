// Package wal makes the committed Youtopia instance durable: a
// segmented, CRC-checked write-ahead log plus a checkpoint/recovery
// engine layered under the storage package's group commit.
//
// The design leans on two invariants the storage and concurrency
// layers already provide. First, storage.WriteRec is a redo record —
// it carries the written tuple's ID, relation, operation, and both
// value sides — so the log needs no format of its own beyond framing.
// Second, the schedulers' commit frontier drains whole terminated
// prefixes through single storage.CommitBatch calls, so the group
// commit doubles as the log batch boundary: one append covers every
// update in the batch, and batches reach the log in priority order.
// Recovery therefore replays a strictly ordered stream of committed
// writes, collapsing them onto writer 0 (the committed initial
// database) — which both reproduces the committed instance
// byte-for-byte and frees the whole update-number space for the next
// run.
//
// Appending and syncing are split (append → covering sync → ack): the
// append happens under the store's commit lock, but the fsync does
// not. appendBatch hands out an ack ticket, and the goroutine that
// waits on a ticket performs the fsync itself, as group commit: the
// first waiter to find no sync in flight leads and syncs everything
// appended so far, later waiters whose batches that sync covers just
// wait for it, so batches appended before a wait share one fsync
// (Syncs() <= Batches()). No fsync happens where nobody waits for
// one. Acknowledgment — a CommitBatch return, a scheduler run
// completing, Close — waits for the covering sync, so anything
// reported durable is durable; a batch that was appended but never
// acknowledged may recover fully or be cut at a frame boundary by
// the CRCs, never partially.
//
// A directory holds at most one checkpoint lineage and a contiguous
// run of segments:
//
//	ckpt-<batch>.ckpt    committed instance as of commit batch <batch>
//	wal-<batch>.seg      commit batches <batch>.. in append order
//
// The checkpointer (Manager.Checkpoint, also run in the background
// once CheckpointBytes of log accumulate) serializes a consistent
// committed snapshot, writes it via a temp-file rename, and deletes
// segments wholly covered by it. Crashes at any point — mid-append,
// mid-checkpoint, mid-truncation — recover to exactly the durable
// prefix of whole commit batches: torn tails are detected by the
// frame CRCs and cut off, half-written checkpoints never get renamed
// into place, and an interrupted truncation only leaves fully-covered
// segments whose records recovery skips.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/vfs"
)

// SyncPolicy selects when the log is fsynced.
type SyncPolicy uint8

const (
	// SyncAlways (the default) makes every commit batch's
	// acknowledgment wait for a covering fsync; batches appended
	// before a wait share one fsync, and a crash loses nothing that
	// was acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: group commit still bounds
	// the write rate, but a crash may lose the most recent batches
	// (never a partial one — the frame CRCs see to that).
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// Options parameterizes a Manager.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates the active segment once it exceeds this
	// size (0 = 4 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint once this much
	// log has accumulated since the last one (0 = 8 MiB; negative
	// disables background checkpointing — Checkpoint can still be
	// called explicitly).
	CheckpointBytes int64
	// Observer, when non-nil, is called after every append with the
	// batch index and the appended batch (the batch may not be synced
	// yet — acknowledgment is the ack ticket's business). It runs
	// under the manager's and the store's commit locks and must not
	// call back into either or retain the record slice; tests and
	// metrics collectors use it.
	Observer func(batch int64, writers []int, recs []storage.WriteRec)
	// FS is the filesystem the log runs on (nil = the real one).
	// Tests and the chaos harness inject a vfs.FaultFS here.
	FS vfs.FS
	// RetryAttempts bounds how many times a transient I/O failure is
	// retried before the log degrades to read-only (0 = 6; negative
	// disables retries).
	RetryAttempts int
	// RetryBase is the first retry's backoff; successive attempts
	// double it (capped at 64x) with ±50% jitter (0 = 500µs).
	RetryBase time.Duration
	// RecheckInterval paces the degraded-mode health loop: the
	// wal_degraded_seconds gauge update and, for ENOSPC degrades, the
	// free-space poll that re-arms writes automatically (0 = 500ms).
	RecheckInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	if o.RetryAttempts == 0 {
		o.RetryAttempts = 6
	} else if o.RetryAttempts < 0 {
		o.RetryAttempts = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Microsecond
	}
	if o.RecheckInterval <= 0 {
		o.RecheckInterval = 500 * time.Millisecond
	}
	return o
}

// Manager owns a WAL directory: it appends commit batches (as the
// store's durability hook), rotates segments, checkpoints, and
// truncates retired segments. Open wires it under a fresh store.
type Manager struct {
	dir  string
	cdc  *codec
	opts Options
	fs   vfs.FS
	st   *storage.Store
	info RecoveryInfo

	// ckptMu serializes checkpoints (explicit and background). It is
	// never held together with the store's lock on the append path;
	// see Checkpoint for the ordering argument.
	ckptMu sync.Mutex

	// mu guards everything below.
	mu        sync.Mutex
	f         vfs.File // active segment (nil until the first append)
	size      int64    // bytes written to the active segment
	batches   int64    // index of the last appended commit batch
	batchBase int64    // batches value at Open; the store's Commits counter starts at 0 there
	lastCkpt  int64    // batch index of the last durable checkpoint
	sinceCkpt int64    // log bytes since the last durable checkpoint
	syncs     int64    // fsyncs that covered appended batches
	frame     []byte   // reusable frame buffer; see takeFrameLocked
	closed    bool
	ioErr     error // sticky poison cause (wraps ErrPoisoned); see poisonLocked
	bgErr     error // first background-checkpoint failure

	// Health machine (see health.go): transient failures retry in
	// place and leave state alone; ENOSPC and exhausted retries
	// degrade to read-only; unknowable-tail failures poison. suspect
	// marks the active segment as unsafe to keep after a failed fsync
	// over it; syncRetrying and rescuing bounce operations that must
	// not interleave with a covering sync's retry/rescue sequence.
	state         State
	reason        string
	since         time.Time
	noSpace       bool
	retries       int64
	degradedAccum time.Duration
	suspect       bool
	syncRetrying  bool
	rescuing      bool
	healthCh      chan struct{}

	// Decision-inbox control state (see control.go): the live parked
	// updates, a monotone control-append counter, and the last control
	// sequence appended into each segment. Checkpoints capture the
	// parked set and the counter at the snapshot moment; retire keeps
	// any segment holding control frames appended after that moment,
	// since the checkpoint's parked section does not cover them.
	parked  *parkedSet
	ctrlSeq int64
	segCtrl map[string]int64

	// Covering-sync state (SyncAlways): appendBatch writes the frame
	// under mu and returns an ack ticket; a ticket's waiter that finds
	// no sync in flight runs syncPending, which fsyncs outside every
	// lock and advances syncedBatch, waking the other waiters through
	// syncCond. Appends that land while a sync is in flight are covered
	// by the next one — that coalescing is what makes syncs <= batches.
	// syncing marks an fsync in flight; segment rotation and Close wait
	// it out before touching the file handle.
	syncCond    *sync.Cond // on mu
	syncedBatch int64      // highest batch index covered by a durable sync (or checkpoint)
	syncing     bool

	// ckptCh wakes the background checkpointer (nil when disabled).
	// stopOnce makes the goroutine shutdown idempotent across Close and
	// the test helpers that simulate crashes.
	ckptCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// stopBackground stops the checkpointer and health goroutines, once.
func (m *Manager) stopBackground() {
	m.stopOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
	})
}

// poisonLocked records the terminal failure — the durable prefix can
// no longer be tracked — and wakes every parked ack waiter, which
// must observe the poison and surface the error rather than sleep
// forever waiting for a covering sync that will never come. The
// sticky cause wraps ErrPoisoned so every error derived from it
// satisfies errors.Is(err, ErrPoisoned). Callers hold m.mu; the
// sticky error is returned for convenience.
func (m *Manager) poisonLocked(err error) error {
	if m.state != StatePoisoned {
		if m.state == StateDegraded {
			m.degradedAccum += time.Since(m.since)
			obsDegradedSecs.Set(int64(m.degradedAccum / time.Second))
		}
		m.state = StatePoisoned
		m.since = time.Now()
		obsHealth.Set(int64(StatePoisoned))
	}
	if m.ioErr == nil {
		if !errors.Is(err, ErrPoisoned) {
			err = fmt.Errorf("%w: %w", ErrPoisoned, err)
		}
		m.ioErr = err
		m.reason = err.Error()
	}
	m.syncCond.Broadcast()
	return m.ioErr
}

func segName(first int64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, uint64(first), segSuffix)
}
func ckptName(batch int64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, uint64(batch), ckptSuffix)
}

// Open recovers the directory's durable state into a fresh store over
// the schema, repairs any torn tail, installs the manager as the
// store's durability hook, and starts the health loop and (unless
// CheckpointBytes is negative) the background checkpointer.
// The directory is created if absent. The returned store is ready for
// use; Close releases the log.
func Open(dir string, schema *model.Schema, opts Options) (*Manager, *storage.Store, error) {
	o := opts.withDefaults()
	if err := checkLayout(o.FS, dir); err != nil {
		return nil, nil, err
	}
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, err := recoverDir(o.FS, dir, schema)
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{
		dir:       dir,
		cdc:       newCodec(schema),
		opts:      o,
		fs:        o.FS,
		st:        rec.st,
		info:      rec.info,
		batches:   rec.info.LastBatch,
		batchBase: rec.info.LastBatch,
		lastCkpt:  rec.info.CheckpointBatch,
		parked:    rec.parked,
		segCtrl:   make(map[string]int64),
	}
	m.syncCond = sync.NewCond(&m.mu)
	// Everything recovered is durable by definition.
	m.syncedBatch = m.batches
	if err := m.repair(rec); err != nil {
		return nil, nil, err
	}
	rec.st.SetCommitHook(m.appendBatch)
	rec.st.SetCommitGuard(m.writeGate)
	rec.st.SetSyncCounter(m.Syncs)
	m.done = make(chan struct{})
	m.healthCh = make(chan struct{}, 1)
	m.wg.Add(1)
	go m.healthLoop()
	if m.opts.CheckpointBytes > 0 {
		m.ckptCh = make(chan struct{}, 1)
		m.wg.Add(1)
		go m.checkpointLoop(m.ckptCh)
	}
	return m, rec.st, nil
}

// repair applies the recovery scan's repair plan: truncate the torn
// tail, drop orphaned later segments and the temp checkpoint, and
// reopen the last live segment for appending.
func (m *Manager) repair(rec *recovery) error {
	for _, orphan := range rec.orphans {
		if err := m.fs.Remove(orphan); err != nil {
			return fmt.Errorf("wal: dropping orphaned %s: %w", filepath.Base(orphan), err)
		}
	}
	if tmp := filepath.Join(m.dir, tmpCkptName); fileExists(m.fs, tmp) {
		if err := m.fs.Remove(tmp); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if rec.truncFile != "" {
		if err := m.fs.Truncate(rec.truncFile, rec.truncAt); err != nil {
			return fmt.Errorf("wal: repairing torn tail of %s: %w", filepath.Base(rec.truncFile), err)
		}
	}
	if rec.lastSeg != "" {
		f, err := m.fs.OpenFile(rec.lastSeg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopening %s: %w", filepath.Base(rec.lastSeg), err)
		}
		if rec.truncFile != "" || len(rec.orphans) > 0 {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			}
		}
		m.f = f
		m.size = rec.lastSegSize
	}
	if rec.truncFile != "" || len(rec.orphans) > 0 {
		if err := syncDir(m.fs, m.dir); err != nil {
			return err
		}
	}
	return nil
}

// Store returns the store the manager persists.
func (m *Manager) Store() *storage.Store { return m.st }

// Dir returns the log directory.
func (m *Manager) Dir() string { return m.dir }

// Fresh reports whether Open found no durable state at all.
func (m *Manager) Fresh() bool { return m.info.Fresh }

// Recovery returns what Open recovered.
func (m *Manager) Recovery() RecoveryInfo { return m.info }

// Batches returns the index of the last durably appended commit batch.
func (m *Manager) Batches() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches
}

// Syncs returns the number of fsyncs that covered appended batches —
// the covering syncs ack waiters run, rotation and control-append
// syncs over pending batches, and the close-time drain. One covering
// sync serves every batch appended before it, so this is at most
// Batches(), and strictly below it whenever several batches are
// appended before anyone waits.
func (m *Manager) Syncs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// SyncedBatches returns the index of the last commit batch covered by
// a durable sync or checkpoint; batches above it are appended but not
// yet acknowledged.
func (m *Manager) SyncedBatches() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncedBatch
}

// LastCheckpoint returns the batch index of the last durable
// checkpoint (0 when none has been taken).
func (m *Manager) LastCheckpoint() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastCkpt
}

// appendBatch is the storage.CommitHook: one frame append per commit
// batch, written while the store holds its write lock — which is what
// makes the log order the commit order — but *not* fsynced there.
// Under SyncAlways the returned ack ticket blocks until a covering
// fsync lands (or a checkpoint supersedes it), running that fsync in
// the waiting goroutine when none is in flight (see waitSynced), so
// the expensive disk wait happens after the store lock is released
// and batches appended before the wait share one sync.
//
// I/O failures on the append path are classified, not fatal:
// transient write errors retry in place with backoff (the torn tail
// is truncated back to the frame boundary before every retry, so the
// commit order never admits a gap), ENOSPC and exhausted retries veto
// the commit and degrade the log to read-only (the store is
// unchanged; the scheduler aborts the batch's updates), and only a
// tail that cannot be restored — the truncate after a failed write
// itself failing — poisons, because a later append past torn bytes
// would be silently cut by the next recovery, losing an acknowledged
// commit. Sync failures are the business of the waiter that runs the
// covering sync (see syncPending): bounded retries, then a rescue
// checkpoint that acknowledges the stranded batches before the log
// degrades.
func (m *Manager) appendBatch(writers []int, recs []storage.WriteRec) (storage.CommitAck, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("wal: append to closed log")
	}
	switch m.state {
	case StatePoisoned:
		return nil, fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
	case StateDegraded:
		return nil, fmt.Errorf("wal: commit rejected while read-only (%s): %w", m.reason, ErrReadOnly)
	}
	if m.rescuing {
		// A covering sync is mid-rescue: a checkpoint is acknowledging the
		// stranded batches and the active segment is about to be
		// dropped. Admitting an append now would put frames into a
		// file that is going away.
		return nil, fmt.Errorf("wal: sync-failure rescue in progress: %w", ErrRetrying)
	}
	frame, err := appendFrame(m.takeFrameLocked(), func(dst []byte) ([]byte, error) {
		return m.cdc.encodeBatch(dst, m.batches+1, writers, recs)
	})
	defer m.putFrameLocked(frame)
	if err != nil {
		return nil, err
	}
	if err := m.ensureSegmentLocked(int64(len(frame))); err != nil {
		return nil, err
	}
	if err := m.writeFrameLocked(frame, "commit"); err != nil {
		return nil, err
	}
	m.batches++
	m.size += int64(len(frame))
	m.sinceCkpt += int64(len(frame))
	obsAppends.Inc()
	obsAppendBytes.Add(int64(len(frame)))
	if obs := m.opts.Observer; obs != nil {
		obs(m.batches, writers, recs)
	}
	if m.ckptCh != nil && m.sinceCkpt >= m.opts.CheckpointBytes {
		select {
		case m.ckptCh <- struct{}{}:
		default:
		}
	}
	if m.opts.Sync != SyncAlways {
		// SyncNever: flushing is the OS's business; the append is all
		// the durability the caller asked for.
		return nil, nil
	}
	batch := m.batches
	return func() error { return m.waitSynced(batch) }, nil
}

// takeFrameLocked lends the caller the manager's frame buffer, emptied;
// putFrameLocked returns it. Every append encodes its frame there, so
// a warm append allocates no frame. The buffer is on loan, not shared:
// a commit append can release m.mu while it holds the buffer (rotation
// in ensureSegmentLocked waits out an in-flight sync), and a control
// append that runs meanwhile finds it gone and builds its frame in a
// fresh slice rather than overwriting the waiting one. Callers hold
// m.mu.
func (m *Manager) takeFrameLocked() []byte {
	b := m.frame[:0]
	m.frame = nil
	return b
}

func (m *Manager) putFrameLocked(b []byte) { m.frame = b[:0] }

// waitSynced blocks until the given batch index is covered by a
// durable sync or checkpoint. While the batch is uncovered and no
// sync, retry or rescue is in flight, the waiter leads: it runs
// syncPending, one fsync covering every batch appended so far. It
// elects itself in the same critical section of m.mu in which
// syncPending sets its in-flight flag, so two waiters never sync the
// same prefix twice. Otherwise it parks until the leader's sync lands
// or the state changes; across transient sync failures it stays
// parked while the leader retries, and a waiter the rescue checkpoint
// covers stays parked until the rescue has also made its state
// transition, so a caller whose ack resolved reads the health the
// rescue left behind, not the one it started from.
func (m *Manager) waitSynced(batch int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for (m.syncedBatch < batch || m.rescuing) && m.state == StateHealthy && !m.closed {
		if m.syncing || m.syncRetrying || m.rescuing {
			m.syncCond.Wait()
			continue
		}
		if m.f == nil {
			// Nothing to fsync can cover the batch; leading would
			// make no progress.
			return fmt.Errorf("wal: commit batch %d not durable: no active segment to sync it", batch)
		}
		m.syncPending()
	}
	if m.syncedBatch >= batch {
		return nil
	}
	switch m.state {
	case StatePoisoned:
		return fmt.Errorf("wal: commit batch %d not durable: %w", batch, m.ioErr)
	case StateDegraded:
		return fmt.Errorf("wal: commit batch %d not durable: log degraded before its covering sync (%s): %w", batch, m.reason, ErrReadOnly)
	}
	return fmt.Errorf("wal: closed before commit batch %d was synced", batch)
}

// syncPending performs one covering fsync if any appended batch awaits
// one: it fsyncs the active segment outside every lock and advances
// the synced frontier to whatever had been appended when the fsync
// started. Callers hold m.mu, which it releases around the fsync, the
// retry backoff and the rescue; one of the syncing, syncRetrying and
// rescuing flags is set whenever it does, and it broadcasts syncCond
// before it returns. Close drains the tail itself, so a closed
// manager is left alone.
//
// A transient sync failure holds the ack waiters parked and retries
// with backoff — commits keep landing meanwhile and are swept into
// the retried sync's fresh target. Once the retry budget is exhausted
// (or the failure is persistent), the stranded batches are rescued:
// a checkpoint serializes the committed instance — which includes
// them — through an untainted file path, acknowledging them without
// the broken fsync, and the log degrades to read-only with the active
// segment marked suspect (after a failed fsync the kernel may have
// dropped its dirty pages; see dropSuspectSegmentLocked). Only a
// rescue that itself fails poisons.
func (m *Manager) syncPending() {
	if m.closed || m.state != StateHealthy || m.f == nil || m.syncedBatch >= m.batches {
		return
	}
	syncStart := time.Now()
	for attempt := 0; ; attempt++ {
		target := m.batches
		f := m.f
		m.syncing = true
		m.mu.Unlock()
		if testSyncHold != nil {
			testSyncHold()
		}
		err := f.Sync()
		m.mu.Lock()
		m.syncing = false
		if err == nil {
			if target > m.syncedBatch {
				m.syncedBatch = target
			}
			m.syncs++
			obsFsyncs.Inc()
			obsSyncWait.ObserveSince(syncStart)
			m.syncRetrying = false
			m.syncCond.Broadcast()
			return
		}
		if !m.closed && vfs.IsTransient(err) && attempt < m.opts.RetryAttempts {
			// Hold the ack waiters parked and retry; control appends
			// (which sync inline and must not interleave with the
			// retry sequence) bounce with ErrRetrying meanwhile.
			m.syncRetrying = true
			m.retries++
			obsRetries.Inc()
			delay := backoff(m.opts.RetryBase, attempt)
			m.mu.Unlock()
			time.Sleep(delay)
			m.mu.Lock()
			if m.closed || m.state != StateHealthy || m.f == nil {
				m.syncRetrying = false
				m.syncCond.Broadcast()
				return
			}
			continue
		}
		m.syncRetrying = false
		if m.closed {
			// Close owns the drain now; leave the failure to it.
			m.syncCond.Broadcast()
			return
		}
		// Rescue: rescuing bounces new appends (the active segment is
		// about to be dropped), the checkpoint runs outside m.mu.
		m.rescuing = true
		m.suspect = true
		m.mu.Unlock()
		rescueErr := m.Checkpoint()
		m.mu.Lock()
		m.rescuing = false
		switch {
		case m.closed:
			// Close raced the rescue and already woke the waiters.
		case rescueErr == nil && m.syncedBatch >= target:
			m.dropSuspectSegmentLocked()
			m.degradeLocked(fmt.Sprintf("sync failed after %d attempts; pending batches rescued by checkpoint", attempt+1), vfs.IsNoSpace(err), err)
		default:
			cause := rescueErr
			if cause == nil {
				cause = fmt.Errorf("checkpoint landed below the stranded batches")
			}
			m.poisonLocked(fmt.Errorf("wal: sync failed (%v) and the rescue checkpoint failed (%v)", err, cause))
		}
		m.syncCond.Broadcast()
		return
	}
}

// ensureSegmentLocked rotates a full segment and lazily creates the
// next one. Callers hold m.mu.
//
// Rotation is a natural sync point: the outgoing segment is fsynced
// before it is closed, which covers every batch appended so far (no
// unsynced batch is left behind in a rotated-away segment — a covering
// sync only ever needs the active one). An in-flight covering fsync is
// waited out first so the handle is not closed under it. A rotation
// sync that fails past the transient-retry budget marks the segment
// suspect and degrades; a failure anywhere in creating the next
// segment leaves nothing referenced — the partial file is removed
// and, for persistent failures, the log degrades with everything
// already appended still intact. A segment that holds no commit batch
// yet (only control frames) is not rotated: segments are named by their
// first batch, so its successor would take its name.
func (m *Manager) ensureSegmentLocked(frameLen int64) error {
	if m.rotationDueLocked(frameLen) && m.syncing {
		for m.syncing {
			m.syncCond.Wait()
		}
		// The wait released m.mu: a concurrent Close may have drained
		// and released the handle in the interim, a covering sync may have
		// changed the state, and a control append may have rotated
		// already — re-check before touching the file.
		if m.closed || m.f == nil {
			return fmt.Errorf("wal: append to closed log")
		}
		switch m.state {
		case StatePoisoned:
			return fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
		case StateDegraded:
			return fmt.Errorf("wal: commit rejected while read-only (%s): %w", m.reason, ErrReadOnly)
		}
	}
	if m.rotationDueLocked(frameLen) {
		var err error
		for attempt := 0; ; attempt++ {
			if err = m.f.Sync(); err == nil {
				break
			}
			if !vfs.IsTransient(err) || attempt >= m.opts.RetryAttempts {
				// The outgoing segment's unsynced region is suspect
				// after a failed fsync; everything in it is already
				// committed in memory, so the rescue on Resume is the
				// covering checkpoint.
				m.suspect = true
				return m.degradeLocked("sync on rotation failed", vfs.IsNoSpace(err), err)
			}
			m.noteRetryLocked(attempt)
		}
		if m.syncedBatch < m.batches {
			m.syncedBatch = m.batches
			m.syncs++
			obsFsyncs.Inc()
			m.syncCond.Broadcast()
		}
		if err := m.f.Close(); err != nil {
			// Everything in the segment is synced; only the handle
			// leaked. Stop appending, keep serving reads.
			m.f = nil
			return m.degradeLocked("close on rotation failed", false, err)
		}
		m.f = nil
	}
	if m.f != nil {
		return nil
	}
	path := filepath.Join(m.dir, segName(m.batches+1))
	// Creation is a composite of three fault points — create, header
	// write, directory sync — and each gets its own transient-retry
	// budget: a burst of transients on one step must not eat the
	// attempts another step still needs.
	var lastErr error
	var tries [3]int
	retryStep := func(step int, err error) bool {
		lastErr = err
		if !vfs.IsTransient(err) || vfs.IsNoSpace(err) || tries[step] >= m.opts.RetryAttempts {
			return false
		}
		m.noteRetryLocked(tries[step])
		tries[step]++
		return true
	}
	for {
		// A previous attempt may have left the file behind; the
		// create below insists on O_EXCL.
		if lastErr != nil {
			m.fs.Remove(path)
		}
		f, err := m.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			if retryStep(0, err) {
				continue
			}
			break
		}
		if _, err := f.Write(segmentHeader(m.cdc.hash, m.batches+1)); err != nil {
			f.Close()
			m.fs.Remove(path)
			if retryStep(1, err) {
				continue
			}
			break
		}
		if err := syncDir(m.fs, m.dir); err != nil {
			f.Close()
			m.fs.Remove(path)
			if retryStep(2, err) {
				continue
			}
			break
		}
		m.f = f
		m.size = headerLen
		return nil
	}
	return m.degradeLocked("creating the next segment failed", vfs.IsNoSpace(lastErr), lastErr)
}

// rotationDueLocked reports whether a frame of frameLen bytes must go
// to a fresh segment. Callers hold m.mu.
func (m *Manager) rotationDueLocked(frameLen int64) bool {
	return m.f != nil && m.size > headerLen && m.size+frameLen > m.opts.SegmentBytes &&
		filepath.Base(m.f.Name()) != segName(m.batches+1)
}

// checkpointLoop is the background checkpointer. A checkpoint that
// finds the log closed did nothing and failed nothing: Close raced it,
// and its error is not a background failure.
func (m *Manager) checkpointLoop(ch <-chan struct{}) {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-ch:
			if err := m.Checkpoint(); err != nil && !errors.Is(err, errClosedLog) {
				m.mu.Lock()
				if m.bgErr == nil {
					m.bgErr = err
				}
				m.mu.Unlock()
			}
		}
	}
}

// Test hooks, nil outside tests. testCkptStart runs when a checkpoint
// begins, before it checks for a closed log; tests use it to hold a
// background checkpoint until Close has begun. testCkptSerialize runs
// after the checkpoint's committed cut is paired with its batch index
// and before serialization; tests use it to hold a checkpoint
// mid-flight and prove commits proceed. testSyncHold runs in
// syncPending after the in-flight flag is set and m.mu released, just
// before the fsync; tests use it to hold a leader's covering sync.
var testCkptStart, testCkptSerialize, testSyncHold func()

// errClosedLog is Checkpoint's report that the log was closed.
var errClosedLog = errors.New("wal: checkpoint of closed log")

// Checkpoint serializes the committed instance, installs it with a
// temp-file rename, and deletes segments (and older checkpoints) the
// new checkpoint wholly covers. It never stalls commits beyond the
// copy: the instance is a committed cut the store copies under its
// read lock (storage.Store.Epoch), then encoded and written
// entirely outside both the manager's mutex and the store's locks. The
// cut is paired with the exact batch index it reflects by matching its
// Commits counter against the manager's batch counter. The store runs
// batches one at a time and advances the count in the same critical
// section as the hook's log append, and a cut with Commits == c
// contains exactly the first c of them: observing it implies the first
// batchBase+c appends are complete, and a batch counter still at
// batchBase+c implies no further append has started, so the cut is the
// committed instance as of exactly batch k = batchBase+c. A mismatch
// means a commit landed after the cut was taken; the loop yields and
// takes another.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	ckptStart := time.Now()
	if testCkptStart != nil {
		testCkptStart()
	}

	var ep *storage.CommittedEpoch
	var k, ctrlAt, nextParkID int64
	var parkedSnap []ParkedUpdate
	for {
		ep = m.st.Epoch()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return errClosedLog
		}
		if m.batches == m.batchBase+ep.Commits() {
			k = m.batches
			ctrlAt = m.ctrlSeq
			nextParkID = m.parked.nextID
			parkedSnap = m.parked.snapshot()
			m.mu.Unlock()
			break
		}
		m.mu.Unlock()
		runtime.Gosched()
	}
	if testCkptSerialize != nil {
		testCkptSerialize()
	}
	tuples, floor := ep.Serialize()
	buf, err := m.cdc.checkpointFile(k, floor, tuples, ep.IDFloors(), nextParkID, parkedSnap)
	if err != nil {
		return err
	}

	// Each step retries transient failures with backoff; a failure
	// here leaves the old checkpoint lineage authoritative (the temp
	// file is never read by recovery and the rename is atomic), so
	// the error is reported without any state transition.
	tmp := filepath.Join(m.dir, tmpCkptName)
	if err := m.retryTransient(3, func() error { return writeFileSync(m.fs, tmp, buf) }); err != nil {
		return err
	}
	final := filepath.Join(m.dir, ckptName(k))
	if err := m.retryTransient(1, func() error { return m.fs.Rename(tmp, final) }); err != nil {
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	if err := m.retryTransient(1, func() error { return syncDir(m.fs, m.dir) }); err != nil {
		return err
	}

	m.mu.Lock()
	if k > m.lastCkpt {
		m.lastCkpt = k
	}
	m.sinceCkpt = 0
	// The checkpoint file is durable and reproduces the committed
	// instance through batch k, so it acknowledges every batch up to k
	// even if their segment frames were never fsynced — a crash now
	// recovers them from the checkpoint.
	if k > m.syncedBatch {
		m.syncedBatch = k
		m.syncCond.Broadcast()
	}
	var active string
	if m.f != nil {
		active = m.f.Name()
	}
	m.mu.Unlock()
	m.retire(k, ctrlAt, final, active)
	obsCkpts.Inc()
	obsCkptWait.ObserveSince(ckptStart)
	return nil
}

// retire deletes checkpoints older than the one just installed and
// every segment whose batches it wholly covers. A segment holding a
// control frame appended after the checkpoint's snapshot moment
// (ctrlAt) is kept regardless — the checkpoint's parked section does
// not reflect that frame yet, so deleting the segment would lose a
// durable park or answer.
//
// Retirement is garbage collection, not correctness: a file that
// fails to delete is counted (wal_retire_skipped_total) and skipped —
// never an error that fails the checkpoint — because recovery skips
// covered segments and older checkpoints anyway, and the next
// checkpoint's retire pass rescans the directory and retries the
// orphans.
func (m *Manager) retire(k, ctrlAt int64, keepCkpt, activeSeg string) {
	ckpts, segs, err := scanDir(m.fs, m.dir)
	if err != nil {
		obsRetireSkips.Inc()
		return
	}
	m.mu.Lock()
	ctrlIn := make(map[string]int64, len(m.segCtrl))
	for path, seq := range m.segCtrl {
		ctrlIn[path] = seq
	}
	m.mu.Unlock()
	removed := false
	var removedSegs []string
	for _, c := range ckpts {
		if c.path != keepCkpt && c.idx <= k {
			if err := m.fs.Remove(c.path); err != nil {
				obsRetireSkips.Inc()
				continue
			}
			removed = true
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		// Segment i holds batches [first_i, first_{i+1}); all covered
		// by the checkpoint iff first_{i+1} <= k+1.
		if segs[i].path != activeSeg && segs[i+1].first <= k+1 && ctrlIn[segs[i].path] <= ctrlAt {
			if err := m.fs.Remove(segs[i].path); err != nil {
				obsRetireSkips.Inc()
				continue
			}
			removed = true
			removedSegs = append(removedSegs, segs[i].path)
		}
	}
	if len(removedSegs) > 0 {
		m.mu.Lock()
		for _, path := range removedSegs {
			delete(m.segCtrl, path)
		}
		m.mu.Unlock()
	}
	if removed {
		// Directory durability for the unlinks; if this fails the
		// files may resurrect after a crash, which recovery tolerates
		// the same way it tolerates a skipped removal.
		if err := syncDir(m.fs, m.dir); err != nil {
			obsRetireSkips.Inc()
		}
	}
}

// Close drains the log (a final covering fsync for any
// appended-but-unsynced batches, waking their ack waiters), stops the
// background checkpointer and health loop, and releases the active
// segment. It returns the first background checkpoint failure, if
// any; a background checkpoint that Close cut short is none. Close is
// idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	// Let an in-flight covering fsync settle before touching the file.
	for m.syncing {
		m.syncCond.Wait()
	}
	var err error
	if m.f != nil {
		if m.state == StateHealthy {
			var serr error
			for attempt := 0; ; attempt++ {
				if serr = m.f.Sync(); serr == nil || !vfs.IsTransient(serr) || attempt >= m.opts.RetryAttempts {
					break
				}
				m.noteRetryLocked(attempt)
			}
			switch {
			case serr != nil:
				m.poisonLocked(fmt.Errorf("wal: sync on close: %w", serr))
				err = serr
			case m.opts.Sync == SyncAlways && m.syncedBatch < m.batches:
				// The drain covered pending batches; under SyncNever
				// the same close-time sync is just tidiness, not an
				// acknowledgment, and stays uncounted.
				m.syncedBatch = m.batches
				m.syncs++
				obsFsyncs.Inc()
			}
		}
		// Degraded or poisoned: a failed fsync may have dropped dirty
		// pages, and a close-time sync would prove nothing about
		// them — the stranded batches stay unacknowledged.
		if cerr := m.f.Close(); cerr != nil && err == nil && m.state == StateHealthy {
			err = cerr
		}
		m.f = nil
	}
	m.syncCond.Broadcast()
	m.mu.Unlock()
	m.stopBackground()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bgErr != nil {
		return m.bgErr
	}
	return err
}

func fileExists(fsys vfs.FS, path string) bool {
	_, err := fsys.Stat(path)
	return err == nil
}

// writeFileSync writes data to path and fsyncs it. O_TRUNC makes a
// retry after a partial write start from a clean slate.
func writeFileSync(fsys vfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and unlinks within it are
// durable.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync %s: %w", dir, err)
	}
	return nil
}
