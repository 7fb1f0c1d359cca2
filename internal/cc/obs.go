package cc

import "youtopia/internal/obs"

// Shared metric handles for the scheduler, resolved once against
// obs.Default at package init so the hot path is plain atomic adds —
// no registry lookups, no locks, and no heap allocations per step
// (pinned by TestInstrumentationAllocFree). The counters mirror the
// per-run cc.Metrics aggregates as live process-wide totals for the
// debug endpoint.
var (
	obsSteps             = obs.Default.Counter("cc_steps_total")
	obsWrites            = obs.Default.Counter("cc_writes_total")
	obsAborts            = obs.Default.Counter("cc_aborts_total")
	obsConflictDirect    = obs.Default.Counter("cc_conflict_direct_total")
	obsConflictCascading = obs.Default.Counter("cc_conflict_cascading_total")
	obsConflictRemoval   = obs.Default.Counter("cc_conflict_removal_total")
	obsConflictFlagged   = obs.Default.Counter("cc_conflict_flagged_total")
	obsUserPolls         = obs.Default.Counter("cc_user_polls_total")
	obsCommitBatches     = obs.Default.Counter("cc_commit_batches_total")
	obsUpdatesCommitted  = obs.Default.Counter("cc_updates_committed_total")
	obsParked            = obs.Default.Counter("cc_parked_total")
	obsResumed           = obs.Default.Counter("cc_resumed_total")
	obsCancelled         = obs.Default.Counter("cc_cancelled_total")
	obsCommitBatchSize   = obs.Default.HistogramWith("cc_commit_batch_updates",
		[]int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
)

// InstrumentationProbe returns a closure performing exactly the
// registry updates one scheduler step-plus-commit makes — the counter
// bumps of the step path and the batch-size histogram observation of
// the commit path — against live handles. TestInstrumentationAllocFree
// runs it under testing.AllocsPerRun to pin the instrumentation at
// zero heap allocations per operation, as CandidateProbe pins the
// live window's candidate collection.
func InstrumentationProbe() func() {
	return func() {
		obsSteps.Inc()
		obsWrites.Add(2)
		obsConflictDirect.Inc()
		obsCommitBatches.Inc()
		obsUpdatesCommitted.Add(4)
		obsCommitBatchSize.Observe(4)
	}
}
