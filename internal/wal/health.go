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
// sync is rescued by a checkpoint, and both degrade, as ENOSPC does.
// Only failures that leave the tail in an unknowable state (a torn
// append whose truncate also failed, a sync failure whose rescue
// checkpoint failed) poison.
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
	// NoSpace reports a degrade caused by ENOSPC; the background space
	// recheck resumes these automatically once the disk drains.
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

// Health reports the manager's current state.
func (m *Manager) Health() Health {
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
// them durable. appendBatch re-checks under the same mutex, so the
// gate is a fast path, not the correctness boundary.
func (m *Manager) writeGate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case StatePoisoned:
		return fmt.Errorf("wal: log poisoned by earlier failure: %w", m.ioErr)
	case StateDegraded:
		return fmt.Errorf("wal: commit rejected while read-only (%s): %w", m.reason, ErrReadOnly)
	}
	return nil
}

// degradeLocked moves a healthy log to read-only and returns the
// error the failed operation should surface. Callers hold m.mu. The
// transition wakes parked ack waiters (they observe the state and
// fail rather than sleep forever) and nudges the health loop, which
// owns the degraded-seconds gauge and the automatic space recheck.
func (m *Manager) degradeLocked(reason string, noSpace bool, cause error) error {
	if m.state == StateHealthy {
		m.state = StateDegraded
		m.reason = reason
		m.noSpace = noSpace
		m.since = time.Now()
		obsHealth.Set(int64(StateDegraded))
		obsDegrades.Inc()
		if m.healthCh != nil {
			select {
			case m.healthCh <- struct{}{}:
			default:
			}
		}
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

// healthLoop owns the degraded-time gauge and the automatic space
// recheck: while the log is degraded it ticks, publishing
// wal_degraded_seconds, and for ENOSPC degrades it polls the
// filesystem's free space and calls Resume once the disk has drained.
func (m *Manager) healthLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-m.healthCh:
		}
		ticker := time.NewTicker(m.opts.RecheckInterval)
		for degraded := true; degraded; {
			select {
			case <-m.done:
				ticker.Stop()
				return
			case <-ticker.C:
			}
			m.mu.Lock()
			if m.state != StateDegraded {
				degraded = false
				m.mu.Unlock()
				continue
			}
			noSpace := m.noSpace
			accum := m.degradedAccum + time.Since(m.since)
			m.mu.Unlock()
			obsDegradedSecs.Set(int64(accum / time.Second))
			if !noSpace {
				continue
			}
			free, err := m.fs.FreeBytes(m.dir)
			if err != nil {
				continue
			}
			// A checkpoint needs room for the snapshot plus a fresh
			// segment; unknown (-1) means the platform can't tell and
			// the resume attempt itself is the probe.
			if free >= 0 && free < m.opts.SegmentBytes {
				continue
			}
			if m.Resume() == nil {
				degraded = false
			}
		}
		ticker.Stop()
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
