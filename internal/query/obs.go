package query

import "youtopia/internal/obs"

// Process-wide query-layer counters on the shared registry, resolved
// once at package init. Plan-cache traffic is counted at the (cheap)
// per-evaluation PlanFor call; the per-candidate join counters are
// accumulated in plain engine-local integers inside the hot loop and
// flushed with one atomic add per top-level evaluation (Engine.
// flushObs), so observability costs the join nothing per row.
var (
	obsPlansCompiled = obs.Default.Counter("query_plans_compiled")
	obsPlanCacheHits = obs.Default.Counter("query_plan_cache_hits")
	obsIndexProbes   = obs.Default.Counter("query_index_probes_total")
	obsJoinSteps     = obs.Default.Counter("query_join_steps_total")
	obsRowsMatched   = obs.Default.Counter("query_rows_matched_total")
)

// flushObs publishes the engine's locally accumulated join counters.
func (e *Engine) flushObs() {
	if e.pendProbes != 0 {
		obsIndexProbes.Add(e.pendProbes)
		e.pendProbes = 0
	}
	if e.pendSteps != 0 {
		obsJoinSteps.Add(e.pendSteps)
		e.pendSteps = 0
	}
	if e.pendMatched != 0 {
		obsRowsMatched.Add(e.pendMatched)
		e.pendMatched = 0
	}
}
