package wal

import "youtopia/internal/obs"

// Durability instrumentation on the shared registry. Appends are
// counted where the frame lands in the segment (under m.mu, so the
// adds ride an already-serialized path); fsync latency is measured
// only around the covering sync an ack waiter runs outside every
// lock — rotation, close, and checkpoint syncs are counted but not
// timed, since they hold m.mu and their latency is not the commit
// path the histogram exists to explain.
// The health-machine gauges are process-wide: every open log sets
// them, so with several logs in one process repo_health reads as the
// most recent transition — Manager.Health is the per-log truth.
var (
	obsAppends      = obs.Default.Counter("wal_appends_total")
	obsAppendBytes  = obs.Default.Counter("wal_append_bytes_total")
	obsFsyncs       = obs.Default.Counter("wal_fsyncs_total")
	obsSyncWait     = obs.Default.LatencyHistogram("wal_sync_seconds")
	obsCkpts        = obs.Default.Counter("wal_checkpoints_total")
	obsCkptWait     = obs.Default.LatencyHistogram("wal_checkpoint_seconds")
	obsRetries      = obs.Default.Counter("wal_retries_total")
	obsDegrades     = obs.Default.Counter("wal_degrades_total")
	obsRetireSkips  = obs.Default.Counter("wal_retire_skipped_total")
	obsDegradedSecs = obs.Default.Gauge("wal_degraded_seconds")
	obsHealth       = obs.Default.Gauge("repo_health")
)
