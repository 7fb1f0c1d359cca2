package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec names one metric; BENCHMARK.json declares the same names
// and units (smoke_test.go holds the two lists together).
type metricSpec struct{ name, unit string }

// endToEnd are the gated metrics. The acceptance contract has every
// workload emit every one of them, none ever zero, and holds ten runs
// with ten seeds to each bound, so this list holds what all four
// workloads have and this machine repeats: the counts and the memory.
// The rest of the issue's twelve lead the per-layer list under their
// own names.
var endToEnd = []metricSpec{
	{"runs_per_update", "count"},
	{"alloc_kb_per_update", "kB"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the ungated metrics: first what a user sees but the gate
// cannot hold — the times, which this machine repeats to 0.2–0.3 in a
// noisy hour, and the figures only some workloads have — then the
// metrics of single layers, read off the traced pass, the obs.Default
// counters and the measured passes. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricSpec{
	{"updates_per_s", "1/s"},
	{"update_p50_us", "us"},
	{"query_p50_us", "us"},
	{"cpu_us_per_update", "us"},
	{"wal_bytes_per_update", "B"},
	{"fsyncs_per_update", "count"},
	{"recovery_s", "s"},
	{"failed_share", "share"},

	{"query.violation_probe_p50_us", "us"},
	{"query.certain_p99_us", "us"},
	{"query.join_steps_per_update", "count"},
	{"query.index_probes_per_update", "count"},
	{"query.plan_cache_hit_share", "share"},

	{"chase.steps_per_update", "count"},
	{"chase.writes_per_update", "count"},
	{"chase.frontier_ops_per_update", "count"},
	{"chase.self_us_per_update", "us"},

	{"cc.aborts_per_update", "count"},
	{"cc.direct_abort_requests_per_update", "count"},
	{"cc.cascading_abort_requests_per_update", "count"},
	{"cc.removal_abort_requests_per_update", "count"},
	{"cc.useful_run_share", "share"},
	{"cc.track_us_per_update", "us"},
	{"cc.run_self_us_per_update", "us"},
	{"cc.overhead_us_per_run", "us"},
	{"cc.commit_batches_per_update", "count"},
	{"cc.max_commit_batch", "count"},
	{"cc.precise.runs_per_update", "count"},
	{"cc.precise.updates_per_s", "1/s"},
	{"cc.precise.track_us_per_update", "us"},
	{"cc.workers1.updates_per_s", "1/s"},

	{"storage.write_us_per_update", "us"},
	{"storage.commit_us_per_update", "us"},
	{"storage.abort_us_per_update", "us"},
	{"storage.snap_us_per_update", "us"},
	{"storage.uncommitted_scan_us_per_update", "us"},
	{"storage.calls_per_update", "count"},
	{"storage.epoch_publishes_per_update", "count"},
	{"storage.lock_contended_per_update", "count"},

	{"wal.write_us_per_update", "us"},
	{"wal.sync_us_per_update", "us"},
	{"wal.sync_p50_us", "us"},
	{"wal.sync_p99_us", "us"},
	{"wal.ack_wait_us_per_update", "us"},
	{"wal.writes_per_update", "count"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_s", "s"},
	{"wal.recovery_replayed_batches", "count"},

	{"core.update_p90_us", "us"},
	{"core.update_p99_us", "us"},
	{"core.update_max_us", "us"},
	{"core.overhead_us_per_update", "us"},
	{"user.decide_us_per_update", "us"},
	{"user.polls_per_update", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles_per_kupdate", "count"},

	{"trace.share.query", "share"},
	{"trace.share.chase", "share"},
	{"trace.share.cc", "share"},
	{"trace.share.storage", "share"},
	{"trace.share.wal", "share"},
	{"trace.share.core", "share"},
	{"trace.share.user", "share"},
	{"trace.overhead_share", "share"},
	{"pass.spread_share", "share"},
	{"pass.load_s", "s"},
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles are Python's statistics.quantiles(xs, n=4): the estimator
// the acceptance protocol uses for the spread of a metric over runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile range as a share of the median.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantileUS is the q-quantile, in microseconds, of durations held as
// nanoseconds (time.Duration or a span's int64).
func quantileUS[T ~int64](ns []T, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, d := range ns {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}

// overPasses applies f to every pass and returns the values.
func overPasses(passes []*pass, f func(*pass) float64) []float64 {
	xs := make([]float64, len(passes))
	for i, ps := range passes {
		xs[i] = f(ps)
	}
	return xs
}

func (ps *pass) perUpdate(x float64) float64 { return x / float64(ps.updates) }

func (ps *pass) perOpset(x float64) float64 { return x / float64(len(ps.heapBytes)) }

func (ps *pass) updatesPerS() float64 { return float64(ps.updates) / ps.wall.Seconds() }

// overRegions is the median over the pass's timed regions of f. A
// region's figure is typical of the workload where the pass's total is
// not: the slowest tenth of coop_dense's windows holds a quarter of all
// executions, and how many such windows a seed draws decides the total.
func (ps *pass) overRegions(f func(region) float64) float64 {
	xs := make([]float64, len(ps.regions))
	for i, r := range ps.regions {
		xs[i] = f(r)
	}
	return median(xs)
}

// perPass are the figures computed per pass and reduced to the median
// over passes: every end-to-end metric but setup_s, and the two times
// reported ungated.
var perPass = map[string]func(*pass) float64{
	"updates_per_s": func(ps *pass) float64 {
		return ps.overRegions(func(r region) float64 { return float64(r.updates) / r.wall.Seconds() })
	},
	"cpu_us_per_update": func(ps *pass) float64 {
		return ps.overRegions(func(r region) float64 { return micros(r.cpu) / float64(r.updates) })
	},
	"runs_per_update": func(ps *pass) float64 {
		return ps.overRegions(func(r region) float64 { return float64(r.runs) / float64(r.updates) })
	},
	"alloc_kb_per_update": func(ps *pass) float64 {
		return ps.overRegions(func(r region) float64 { return float64(r.allocBytes) / 1e3 / float64(r.updates) })
	},
	"heap_mb": func(ps *pass) float64 {
		xs := make([]float64, len(ps.heapBytes))
		for i, b := range ps.heapBytes {
			xs[i] = float64(b) / 1e6
		}
		return median(xs)
	},
}

// endToEndMetrics reduces the measured passes to the run's end-to-end
// figures: each is computed per pass and the run reports the median over
// its identical passes.
func endToEndMetrics(passes []*pass, setupS float64) map[string]float64 {
	values := map[string]float64{"setup_s": setupS}
	for _, s := range endToEnd {
		if f := perPass[s.name]; f != nil {
			values[s.name] = median(overPasses(passes, f))
		}
	}
	return values
}

// traced is what a --trace 1 run hands perLayerMetrics besides the
// measured passes.
type traced struct {
	pass *pass // op-set 0 through the decorators
	sum  spanSummary
	// real is op-set 0 through the program's entry point, undecorated.
	real *pass
	// base is op-set 0 without decorators through the same code path as
	// the traced pass: the bare pipeline for serial_*, real for the
	// schedulers.
	base *pass
	// precise is op-set 0 under PRECISE (coop_dense); workers1 is op-set
	// 0 on one worker (parallel_sparse).
	precise    *pass
	preciseSum spanSummary
	workers1   *pass
	probeNS    []int64
	workers    int
}

func perLayerMetrics(passes []*pass, t traced) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	med := func(f func(*pass) float64) float64 { return median(overPasses(passes, f)) }
	tp, sum := t.pass, t.sum
	per := func(x float64) float64 { return tp.perUpdate(x) }
	inclUS := func(name string) float64 { return per(float64(sum.inclNS[name]) / 1e3) }
	selfUS := func(name string) float64 { return per(float64(sum.selfName[name]) / 1e3) }
	counter := func(name string) float64 { return per(float64(tp.counters[name])) }

	m["updates_per_s"] = med(perPass["updates_per_s"])
	m["cpu_us_per_update"] = med(perPass["cpu_us_per_update"])
	updateUS := func(i int) float64 {
		return med(func(ps *pass) float64 { return ps.overRegions(func(r region) float64 { return r.updateUS[i] }) })
	}
	queryUS := func(i int) float64 {
		return med(func(ps *pass) float64 { return ps.overRegions(func(r region) float64 { return r.queryUS[i] }) })
	}
	m["update_p50_us"] = updateUS(0)
	m["query_p50_us"] = queryUS(0)
	m["wal_bytes_per_update"] = med(func(ps *pass) float64 { return ps.perUpdate(float64(ps.counters["wal_append_bytes_total"])) })
	m["fsyncs_per_update"] = med(func(ps *pass) float64 { return ps.perUpdate(float64(ps.counters["wal_fsyncs_total"])) })
	m["recovery_s"] = med(func(ps *pass) float64 { return ps.perOpset(ps.recovery.Seconds()) })

	m["query.violation_probe_p50_us"] = quantileUS(t.probeNS, 0.5)
	m["query.certain_p99_us"] = queryUS(1)
	m["query.join_steps_per_update"] = counter("query_join_steps_total")
	m["query.index_probes_per_update"] = counter("query_index_probes_total")
	if plans := tp.counters["query_plan_cache_hits"] + tp.counters["query_plans_compiled"]; plans > 0 {
		m["query.plan_cache_hit_share"] = float64(tp.counters["query_plan_cache_hits"]) / float64(plans)
	}

	m["chase.steps_per_update"] = counter("chase_steps_total")
	m["chase.writes_per_update"] = counter("chase_writes_total")
	m["chase.frontier_ops_per_update"] = counter("chase_frontier_ops_total")
	m["chase.self_us_per_update"] = selfUS("chase.run")

	if tp.m.Submitted > 0 {
		cm := tp.m
		m["cc.aborts_per_update"] = per(float64(cm.Aborts))
		m["cc.direct_abort_requests_per_update"] = per(float64(cm.DirectAbortRequests))
		m["cc.cascading_abort_requests_per_update"] = per(float64(cm.CascadingAbortRequests))
		m["cc.removal_abort_requests_per_update"] = per(float64(cm.RemovalAbortRequests))
		m["cc.useful_run_share"] = float64(cm.Submitted) / float64(cm.Runs)
		m["cc.track_us_per_update"] = inclUS("cc.track")
		// Worker time not inside a storage, tracker or user call: the
		// scheduler, the chase engine and its query evaluation, which an
		// outside decorator cannot tell apart (plus, with two workers,
		// their waiting).
		m["cc.run_self_us_per_update"] = per(float64(sum.schedSelfNS(t.workers)) / 1e3)
		// The §6 normalization: wall per execution under the scheduler
		// minus wall per update of the serial oracle on the same op-sets.
		if tp.oracleUpdates > 0 && t.real.runs > 0 {
			m["cc.overhead_us_per_run"] = micros(t.real.wall)/float64(t.real.runs) -
				micros(tp.oracleWall)/float64(tp.oracleUpdates)
		}
		m["cc.commit_batches_per_update"] = per(float64(cm.CommitBatches))
		m["cc.max_commit_batch"] = float64(cm.MaxCommitBatch)
		m["user.polls_per_update"] = per(float64(cm.UserPolls))
	} else {
		m["user.polls_per_update"] = per(float64(sum.count["user.decide"]))
	}
	if t.precise != nil {
		m["cc.precise.runs_per_update"] = t.precise.perUpdate(float64(t.precise.runs))
		m["cc.precise.updates_per_s"] = t.precise.updatesPerS()
		m["cc.precise.track_us_per_update"] = t.precise.perUpdate(float64(t.preciseSum.inclNS["cc.track"]) / 1e3)
	}
	if t.workers1 != nil {
		m["cc.workers1.updates_per_s"] = t.workers1.updatesPerS()
	}

	m["storage.write_us_per_update"] = selfUS("storage.write")
	m["storage.commit_us_per_update"] = selfUS("storage.commit")
	m["storage.abort_us_per_update"] = selfUS("storage.abort")
	m["storage.snap_us_per_update"] = selfUS("storage.snap")
	m["storage.uncommitted_scan_us_per_update"] = selfUS("storage.uncommitted_scan")
	var calls int64
	for name, n := range sum.count {
		if layerOf(name) == "storage" {
			calls += n
		}
	}
	m["storage.calls_per_update"] = per(float64(calls))
	m["storage.epoch_publishes_per_update"] = counter("storage_epoch_publish_total")
	m["storage.lock_contended_per_update"] = counter("storage_stripe_lock_contended_total") +
		counter("storage_stripe_rlock_contended_total")

	m["wal.write_us_per_update"] = inclUS("wal.write")
	m["wal.sync_us_per_update"] = inclUS("wal.sync")
	m["wal.sync_p50_us"] = quantileUS(sum.durs["wal.sync"], 0.5)
	m["wal.sync_p99_us"] = quantileUS(sum.durs["wal.sync"], 0.99)
	m["wal.ack_wait_us_per_update"] = inclUS("wal.ack_wait")
	m["wal.writes_per_update"] = per(float64(sum.count["wal.write"]))
	m["wal.checkpoints"] = med(func(ps *pass) float64 { return ps.perOpset(float64(ps.checkpoints)) })
	m["wal.checkpoint_s"] = med(func(ps *pass) float64 { return ps.perOpset(float64(ps.checkpointNS) / 1e9) })
	m["wal.recovery_replayed_batches"] = med(func(ps *pass) float64 { return ps.perOpset(float64(ps.replayed)) })

	m["core.update_p90_us"] = updateUS(1)
	m["core.update_p99_us"] = updateUS(2)
	m["core.update_max_us"] = updateUS(3)
	if t.base != t.real {
		// Real Apply minus the hand-assembled pipeline on the same op-set:
		// what core adds around chase, commit and ack (its mutex, the
		// health check, the null mark, the lifecycle notes).
		m["core.overhead_us_per_update"] = t.real.perUpdate(micros(t.real.wall)) - t.base.perUpdate(micros(t.base.wall))
	}
	m["user.decide_us_per_update"] = inclUS("user.decide")
	m["runtime.gc_cpu_share"] = med(func(ps *pass) float64 {
		if ps.cpu <= 0 {
			return 0
		}
		return ps.gcCPU / ps.cpu.Seconds()
	})
	m["runtime.gc_cycles_per_kupdate"] = med(func(ps *pass) float64 { return ps.perUpdate(1000 * float64(ps.gcCycles)) })

	total := float64(sum.rootNS)
	if t.workers > 1 {
		total *= float64(t.workers)
	}
	for _, layer := range []string{"query", "chase", "cc", "storage", "wal", "core", "user"} {
		self := sum.selfNS[layer]
		if layer == "cc" {
			self = sum.schedSelfNS(t.workers) + sum.selfName["cc.track"]
		}
		if total > 0 {
			m["trace.share."+layer] = float64(self) / total
		}
	}
	m["trace.overhead_share"] = tp.wall.Seconds()/t.base.wall.Seconds() - 1
	m["pass.spread_share"] = spreadShare(overPasses(passes, perPass["updates_per_s"]))
	m["pass.load_s"] = med(func(ps *pass) float64 { return ps.perOpset(ps.load.Seconds()) })
	return m
}
