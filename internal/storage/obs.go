package storage

import "youtopia/internal/obs"

// Stripe-lock and epoch instrumentation on the shared registry. The
// uncontended lock path stays one try-acquire (a CAS, same cost class
// as the plain acquire it replaces) plus the probe load — timing only
// starts once a lock actually blocks, so the zero-alloc and lock-free
// gates are unaffected. The sharded store's shards are plain Stores,
// so their stripes report through the same handles.
var (
	obsLockContended  = obs.Default.Counter("storage_stripe_lock_contended_total")
	obsRLockContended = obs.Default.Counter("storage_stripe_rlock_contended_total")
	obsLockWait       = obs.Default.LatencyHistogram("storage_stripe_lock_wait_seconds")
	// Epoch economics, all driven by readers (commits build nothing):
	// how many epochs were built on demand, how many of those won the
	// CAS that caches them, how many stripe records they rebuilt (the
	// rest are reused pointers), and how many optimistic refreshes were
	// thrown away because a commit moved an unlocked stripe.
	obsEpochRefresh  = obs.Default.Counter("storage_epoch_refresh_total")
	obsEpochPublish  = obs.Default.Counter("storage_epoch_publish_total")
	obsEpochRebuilds = obs.Default.Counter("storage_epoch_stripe_rebuilds_total")
	obsEpochRetries  = obs.Default.Counter("storage_epoch_refresh_retries_total")
)
