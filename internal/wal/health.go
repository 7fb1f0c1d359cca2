package wal

import (
	"errors"
	"fmt"
	"time"

	"youtopia/internal/vfs"
)

// State is the manager's health: how much of the durability contract
// it can currently honor.
//
//	healthy  — appends, syncs, and checkpoints all serving
//	degraded — read-only: reads and inbox listing serve, new commits
//	           are rejected fast with ErrReadOnly; Resume re-arms
//	poisoned — the durable prefix can no longer be tracked; only a
//	           reopen (which re-runs recovery and repair) helps
//
// Transitions only go rightward while the manager is open. Every I/O
// failure is taken as the kernel reports it and none is retried: a
// failed or torn append is cut back off the tail, a failed covering
// sync is rescued by a checkpoint (or, if that fails too, left for
// Resume's checkpoint), and all of these degrade, as ENOSPC does. Only
// a failure that leaves the tail unknowable poisons: a torn or
// unsynced frame whose truncate also failed.
type State int32

const (
	StateHealthy State = iota
	StateDegraded
	StatePoisoned
)

// String names the state as /healthz and the CLIs report it.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StatePoisoned:
		return "poisoned"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

var (
	// ErrReadOnly marks an operation rejected because the log degraded
	// to read-only mode. Reads keep serving; Resume re-arms writes.
	ErrReadOnly = errors.New("wal: log is read-only")
	// ErrPoisoned marks the terminal state: the durable prefix can no
	// longer be tracked and the directory must be reopened.
	ErrPoisoned = errors.New("wal: log poisoned")
)

// Health is a point-in-time snapshot of the manager's state.
type Health struct {
	State State
	// Reason describes the transition out of healthy ("" while
	// healthy).
	Reason string
	// Since is when the current non-healthy spell began.
	Since time.Time
	// NoSpace reports a degrade caused by ENOSPC. Reading the health
	// (Health, or a commit's admission check) probes the free space at
	// most every 500 ms and resumes the log once the disk drains.
	NoSpace bool
}

// Err returns the sentinel-wrapped error a write would be rejected
// with right now, or nil while healthy.
func (h Health) Err() error {
	switch h.State {
	case StateDegraded:
		return fmt.Errorf("wal: %s: %w", h.Reason, ErrReadOnly)
	case StatePoisoned:
		return fmt.Errorf("wal: %s: %w", h.Reason, ErrPoisoned)
	}
	return nil
}

// Health reports the manager's current state, after a degraded log
// has re-checked itself (see recheck).
func (m *Manager) Health() Health {
	m.recheck()
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{
		State:   m.state,
		Reason:  m.reason,
		Since:   m.since,
		NoSpace: m.noSpace,
	}
}

// writeGate is installed as the store's commit guard: it rejects
// commits before the store lock is taken when the log cannot make
// them durable, with the error Health reports. Reading the health lets
// a degraded log re-check itself first, so the first commit after an
// ENOSPC degrade's disk drains goes through. appendBatch re-checks
// under m.mu, so the gate is a fast path, not the correctness boundary.
func (m *Manager) writeGate() error { return m.Health().Err() }

// degradeLocked moves a healthy log to read-only and returns the
// error the failed operation should surface. Callers hold m.mu. The
// transition wakes parked ack waiters (they observe the state and
// fail rather than sleep forever).
func (m *Manager) degradeLocked(reason string, noSpace bool, cause error) error {
	if m.state == StateHealthy {
		m.state = StateDegraded
		m.reason = reason
		m.noSpace = noSpace
		m.since = time.Now()
		m.probed = m.since
		obsHealth.Set(int64(StateDegraded))
		obsDegrades.Inc()
	}
	m.syncCond.Broadcast()
	return fmt.Errorf("wal: %s (%v); log is read-only until Resume: %w", reason, cause, ErrReadOnly)
}

// Resume re-arms a degraded log. It proves the stack can write
// durably again by taking a checkpoint — the full create → write →
// fsync → rename → dir-sync path — and only then clears the degraded
// state. If the degrade left the active segment suspect (an fsync
// failed over it, so the kernel may have dropped dirty pages the
// checkpoint has since covered), the segment is removed rather than
// reused: recovery tolerates the gap because the checkpoint covers
// it. Resuming a healthy log is a no-op; a poisoned log cannot be
// resumed.
func (m *Manager) Resume() error {
	m.mu.Lock()
	switch {
	case m.closed:
		m.mu.Unlock()
		return fmt.Errorf("wal: resume of closed log")
	case m.state == StatePoisoned:
		err := fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
		m.mu.Unlock()
		return err
	case m.state == StateHealthy:
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	if err := m.Checkpoint(); err != nil {
		return fmt.Errorf("wal: resume: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateDegraded {
		if m.state == StatePoisoned {
			return fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
		}
		return nil
	}
	m.dropSuspectSegmentLocked()
	m.degradedAccum += time.Since(m.since)
	obsDegradedSecs.Set(int64(m.degradedAccum / time.Second))
	m.state = StateHealthy
	m.reason = ""
	m.noSpace = false
	m.since = time.Time{}
	obsHealth.Set(int64(StateHealthy))
	m.syncCond.Broadcast()
	return nil
}

// dropSuspectSegmentLocked removes the active segment after a sync
// failure over it, once a checkpoint covers everything it held. After
// a failed fsync the kernel may have dropped dirty pages while
// clearing their dirty flags, so even a later successful fsync proves
// nothing about the segment's unsynced region — the only safe move is
// to stop referencing the file. The next append starts a fresh
// segment at batches+1; recovery accepts the numbering gap because
// the checkpoint covers the missing range.
func (m *Manager) dropSuspectSegmentLocked() {
	if !m.suspect {
		return
	}
	if m.f != nil {
		path := m.f.Name()
		m.f.Close()
		if err := m.fs.Remove(path); err != nil {
			obsRetireSkips.Inc()
		}
		delete(m.segCtrl, path)
		m.f = nil
		m.size = 0
	}
	m.suspect = false
}

// recheckInterval is the least time between two free-space probes of
// a log degraded by ENOSPC. Tests shorten it.
var recheckInterval = 500 * time.Millisecond

// recheck is how a degraded log re-checks itself, run whenever its
// health is read: it refreshes wal_degraded_seconds and, for an ENOSPC
// degrade, probes the filesystem's free space at most once per
// recheckInterval (read off the clock) and calls Resume once the disk
// has drained.
func (m *Manager) recheck() {
	m.mu.Lock()
	if m.state != StateDegraded || m.closed {
		m.mu.Unlock()
		return
	}
	obsDegradedSecs.Set(int64((m.degradedAccum + time.Since(m.since)) / time.Second))
	probe := m.noSpace && time.Since(m.probed) >= recheckInterval
	if probe {
		m.probed = time.Now()
	}
	m.mu.Unlock()
	if !probe {
		return
	}
	// A checkpoint needs room for the snapshot plus a fresh segment;
	// unknown (-1) means the platform can't tell and the resume attempt
	// itself is the probe.
	if free, err := m.fs.FreeBytes(m.dir); err == nil && (free < 0 || free >= m.opts.SegmentBytes) {
		m.Resume()
	}
}

// writeFrameLocked appends one frame at the current tail. A failed or
// short write leaves torn bytes past the known-good tail, so the tail
// is truncated back to its pre-append size before the log degrades
// (segments are opened O_APPEND, so the next append after Resume lands
// at the restored end). If the truncate itself fails the tail is
// unknowable and the log poisons — a later successful append past torn
// bytes would be cut by the next recovery, losing an acknowledged
// commit. Callers hold m.mu and account m.size themselves on success.
func (m *Manager) writeFrameLocked(frame []byte, what string) error {
	n, err := m.f.Write(frame)
	if err == nil && n == len(frame) {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(frame))
	}
	// Even a 0-byte error report may have touched the file; always
	// restore the tail to the frame boundary.
	if terr := m.f.Truncate(m.size); terr != nil {
		return m.poisonLocked(fmt.Errorf("wal: %s append failed (%v) and the tail could not be restored (%v)", what, err, terr))
	}
	if vfs.IsNoSpace(err) {
		return m.degradeLocked(what+" append: no space left on device", true, err)
	}
	return m.degradeLocked(what+" append failed", false, err)
}
