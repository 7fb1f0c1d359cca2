package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/inbox"
	"youtopia/internal/obs"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/wal"
	"youtopia/internal/workload"
)

// The inbox study measures what the decision inbox costs and buys
// against the legacy busy-repoll scheduler on the same seeded
// workload: committed-update throughput, how many live user polls the
// run needed (the bounded-polls property: waiting in the inbox costs
// zero Decide calls, so inbox-mode polls track decisions, not wait
// time), and the time-to-resume distribution — how long a parked
// update waits between filing its question and committing, under an
// asynchronous answerer with a configurable think time.

// InboxPoint is one measurement of the inbox study.
type InboxPoint struct {
	// Mode is "inline" (legacy busy-repoll, the reference) or "inbox"
	// (park/answer/resume through the decision inbox).
	Mode string
	// Workers is the scheduler's round width, at least 1: the serial
	// reference (0) cannot park an update.
	Workers int
	Runs    int
	// LatencyMicros is the answerer's configured per-answer think time
	// (inbox mode only).
	LatencyMicros float64 `json:",omitempty"`
	Aborts        float64
	WallMillis    float64
	UpdatesPerSec float64
	// UserPolls is the mean number of live chase.User.Decide calls per
	// run. Inline mode repolls blocked updates every round, so this
	// grows with wait time; inbox mode stays at the decisions actually
	// taken — the metric the bounded-polls gate watches.
	UserPolls float64
	// Parked and Answered are the mean inbox entry and recorded-answer
	// counts per run (inbox mode only).
	Parked   float64 `json:",omitempty"`
	Answered float64 `json:",omitempty"`
	// ResumeP50Millis / ResumeP99Millis are nearest-rank percentiles of
	// the park-to-commit wall time of resolved entries (inbox mode
	// only) — the time a decision spends suspended in the inbox.
	ResumeP50Millis float64 `json:",omitempty"`
	ResumeP99Millis float64 `json:",omitempty"`
	// NumCPU and GoMaxProcs record the hardware the point ran on, so
	// published artifacts are attributable to a runner generation.
	NumCPU     int `json:",omitempty"`
	GoMaxProcs int `json:",omitempty"`
}

// Label names the point.
func (p InboxPoint) Label() string {
	return fmt.Sprintf("%s,%s", p.Mode, ModeLabel(p.Workers))
}

// InboxStudy runs the same seeded workload twice per worker count —
// once answered inline by the simulated user, once parked in a
// decision inbox and answered asynchronously after `latency` of think
// time per answer — and reports both sides. With a non-empty dataDir
// every run executes against a write-ahead-logged store (parks and
// answers then go through the durable control records too).
func InboxStudy(base workload.Config, workers int, runs int, latency time.Duration, dataDir string) ([]InboxPoint, error) {
	if runs <= 0 {
		runs = 3
	}
	u, err := workload.Build(base)
	if err != nil {
		return nil, err
	}
	var out []InboxPoint
	for _, mode := range []string{"inline", "inbox"} {
		p := InboxPoint{Mode: mode, Workers: workers, Runs: runs}
		if mode == "inbox" {
			p.LatencyMicros = float64(latency) / float64(time.Microsecond)
		}
		if err := measureInboxPoint(u, base, &p, runs, latency, dataDir); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// measureInboxPoint folds `runs` executions of one mode into p.
func measureInboxPoint(u *workload.Universe, base workload.Config, p *InboxPoint, runs int, latency time.Duration, dataDir string) error {
	p.NumCPU = runtime.NumCPU()
	p.GoMaxProcs = runtime.GOMAXPROCS(0)
	var updates float64
	resumes := obs.NewLatencyHistogram()
	for r := 0; r < runs; r++ {
		var st *storage.Store
		var mgr *wal.Manager
		var err error
		if dataDir == "" {
			st, err = u.NewStore()
		} else {
			dir := filepath.Join(dataDir, fmt.Sprintf("%s-w%d-r%d", p.Mode, p.Workers, r))
			st, mgr, err = u.OpenDurableStore(dir, wal.Options{})
		}
		if err != nil {
			return err
		}
		seed := uint64(base.Seed)*31 + uint64(r)
		cfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(seed),
			MaxAbortsPerUpdate: 10000,
			Workers:            p.Workers,
		}
		var answerer *workload.Answerer
		if p.Mode == "inbox" {
			cfg.Inbox = inbox.NewBox()
			answerer = &workload.Answerer{
				Box: cfg.Inbox, Seed: seed, ForceUnifyAfter: 64, Latency: latency,
			}
			answerer.Start()
		}
		ops := u.GenOpsSeeded(base.Seed*6151 + int64(r))
		m, elapsed, err := RunMode(st, u.Mappings, cfg, ops)
		if answerer != nil {
			answerer.Stop()
		}
		if mgr != nil {
			if cerr := mgr.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("experiments: %s run %d: %w", p.Label(), r, err)
		}
		p.Aborts += float64(m.Aborts)
		p.WallMillis += float64(elapsed.Milliseconds())
		p.UserPolls += float64(m.UserPolls)
		if cfg.Inbox != nil {
			parked, answered, _, _, _ := cfg.Inbox.Counters()
			p.Parked += float64(parked)
			p.Answered += float64(answered)
			resumes.Merge(cfg.Inbox.ResumeHistogram())
		}
		if secs := elapsed.Seconds(); secs > 0 {
			updates += float64(m.Submitted) / secs
		}
	}
	n := float64(runs)
	p.Aborts /= n
	p.WallMillis /= n
	p.UserPolls /= n
	p.Parked /= n
	p.Answered /= n
	p.UpdatesPerSec = updates / n
	p.ResumeP50Millis = float64(resumes.QuantileDuration(0.50)) / float64(time.Millisecond)
	p.ResumeP99Millis = float64(resumes.QuantileDuration(0.99)) / float64(time.Millisecond)
	return nil
}

// InboxJSON renders the study as indented JSON — the BENCH_inbox.json
// artifact CI uploads and gates regressions on.
func InboxJSON(points []InboxPoint) ([]byte, error) {
	return json.MarshalIndent(points, "", "  ")
}

// LoadInboxJSON reads a study previously written by InboxJSON.
func LoadInboxJSON(path string) ([]InboxPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var points []InboxPoint
	if err := json.Unmarshal(data, &points); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	return points, nil
}

// CheckInboxRegression gates a fresh inbox study against a committed
// baseline. Raw upd/s is machine-dependent, so the gated quantity is
// the inbox/inline throughput ratio — what the inbox indirection
// costs relative to the same machine's inline run — which may drop at
// most tolerancePct percent below the baseline's ratio. The
// bounded-polls property is gated absolutely: inbox-mode UserPolls may
// exceed the baseline by at most tolerancePct percent plus one poll
// (poll counts are workload-determined, not machine-determined, so the
// comparison is direct).
func CheckInboxRegression(current, baseline []InboxPoint, tolerancePct float64) error {
	find := func(points []InboxPoint, mode string) (InboxPoint, bool) {
		for _, p := range points {
			if p.Mode == mode {
				return p, true
			}
		}
		return InboxPoint{}, false
	}
	curIn, ok1 := find(current, "inbox")
	curRef, ok2 := find(current, "inline")
	baseIn, ok3 := find(baseline, "inbox")
	baseRef, ok4 := find(baseline, "inline")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("experiments: inbox study needs an inline and an inbox point on both sides")
	}
	var failures []string
	if curRef.UpdatesPerSec > 0 && baseRef.UpdatesPerSec > 0 && baseIn.UpdatesPerSec > 0 {
		cur := curIn.UpdatesPerSec / curRef.UpdatesPerSec
		base := baseIn.UpdatesPerSec / baseRef.UpdatesPerSec
		if cur < base*(1-tolerancePct/100) {
			failures = append(failures, fmt.Sprintf(
				"inbox: throughput-vs-inline %.3f vs baseline %.3f (-%.1f%%, tolerance %.0f%%)",
				cur, base, 100*(1-cur/base), tolerancePct))
		}
	}
	if curIn.UserPolls > baseIn.UserPolls*(1+tolerancePct/100) && curIn.UserPolls > baseIn.UserPolls+1 {
		failures = append(failures, fmt.Sprintf(
			"inbox: %.1f user polls vs baseline %.1f (tolerance %.0f%% + 1): blocked updates are being repolled",
			curIn.UserPolls, baseIn.UserPolls, tolerancePct))
	}
	if len(failures) > 0 {
		return fmt.Errorf("experiments: inbox regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// InboxCSV renders the study as CSV, one row per point.
func InboxCSV(points []InboxPoint) string {
	var b strings.Builder
	b.WriteString("mode,workers,runs,latency_us,aborts,wall_ms,upd_per_sec,user_polls,parked,answered,resume_p50_ms,resume_p99_ms\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%.0f,%.2f,%.2f,%.2f,%.1f,%.1f,%.1f,%.3f,%.3f\n",
			p.Mode, p.Workers, p.Runs, p.LatencyMicros, p.Aborts, p.WallMillis,
			p.UpdatesPerSec, p.UserPolls, p.Parked, p.Answered,
			p.ResumeP50Millis, p.ResumeP99Millis)
	}
	return b.String()
}

// RenderInbox prints the study as an aligned table.
func RenderInbox(points []InboxPoint) string {
	var b strings.Builder
	b.WriteString("decision-inbox study (inline busy-repoll vs park/answer/resume)\n")
	fmt.Fprintf(&b, "%-18s%10s%12s%12s%12s%10s%10s%14s%14s\n",
		"mode", "aborts", "wall(ms)", "upd/s", "user polls", "parked", "answered", "resume-p50(ms)", "resume-p99(ms)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s%10.1f%12.1f%12.1f%12.1f%10.1f%10.1f%14.3f%14.3f\n",
			p.Label(), p.Aborts, p.WallMillis, p.UpdatesPerSec, p.UserPolls,
			p.Parked, p.Answered, p.ResumeP50Millis, p.ResumeP99Millis)
	}
	return b.String()
}
