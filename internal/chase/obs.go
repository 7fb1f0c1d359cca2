package chase

import "youtopia/internal/obs"

// Process-wide chase counters on the shared registry, resolved once
// at package init so the step loop pays one atomic add per event.
// They aggregate across every engine in the process (the scheduler,
// the repository, replays), which is the view the debug endpoint
// wants; per-run figures stay in Update.Stats / cc.Metrics.
var (
	obsSteps            = obs.Default.Counter("chase_steps_total")
	obsWrites           = obs.Default.Counter("chase_writes_total")
	obsViolations       = obs.Default.Counter("chase_violations_total")
	obsFrontierRequests = obs.Default.Counter("chase_frontier_requests_total")
	obsFrontierOps      = obs.Default.Counter("chase_frontier_ops_total")
	obsRechecks         = obs.Default.Counter("chase_rechecks_total")

	// The query seam: attempt contexts created (recycled, so at most
	// one per attempt in flight), query engines created (one per chase
	// engine that stepped) and reads stored in read logs.
	obsQueryContexts = obs.Default.Counter("chase_query_contexts_total")
	obsQueryEngines  = obs.Default.Counter("chase_query_engines_total")
	obsReadsRecorded = obs.Default.Counter("chase_reads_recorded_total")
)
