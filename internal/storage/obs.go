package storage

import "youtopia/internal/obs"

// Stripe-lock and committed-cut instrumentation on the shared
// registry. The uncontended lock path stays one try-acquire (a CAS,
// same cost class as the plain acquire it replaces) — timing only
// starts once a lock actually blocks, so the zero-alloc gates are
// unaffected.
var (
	obsLockContended  = obs.Default.Counter("storage_stripe_lock_contended_total")
	obsRLockContended = obs.Default.Counter("storage_stripe_rlock_contended_total")
	obsLockWait       = obs.Default.LatencyHistogram("storage_stripe_lock_wait_seconds")
	// Committed cuts taken by Epoch, one per call (commits build
	// nothing for them).
	obsEpochPublish = obs.Default.Counter("storage_epoch_publish_total")
)
