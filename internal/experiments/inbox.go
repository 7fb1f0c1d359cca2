package experiments

import (
	"fmt"
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
// workload: how many live user polls the run needed (the bounded-polls
// property: waiting in the inbox costs zero Decide calls, so inbox-mode
// polls track decisions, not wait time), the inbox's entry counts,
// committed-update throughput and the time-to-resume distribution.
// Parked questions are answered on the inbox's clock: each entry
// carries a deadline of answerTicks idle rounds, and the deadline
// auto-answer asks the same seeded simulated user the inline side
// polls. No goroutine answers, so an inbox run replays from its seed
// like any other, and its counts are gated exactly.

// answerTicks is how many inbox ticks — scheduler rounds without
// progress — a parked question waits before the deadline policy
// answers it.
const answerTicks = 2

// InboxPoint is one measurement of the inbox study. Its counts, means
// over the point's runs, replay exactly; CheckCounts gates them. The
// walls are reported, never gated.
type InboxPoint struct {
	// Mode is "inline" (legacy busy-repoll, the reference) or "inbox"
	// (park, deadline answer and resume through the decision inbox).
	Mode string
	// Workers is the scheduler's round width, at least 1: the serial
	// reference (0) cannot park an update.
	Workers       int
	Runs          int
	Aborts        float64
	WallMillis    float64
	UpdatesPerSec float64
	// UserPolls is the mean number of live chase.User.Decide calls per
	// run. Inline mode repolls blocked updates every round, so this
	// grows with wait time; inbox mode polls once per deadline answer —
	// the bounded-polls property.
	UserPolls float64
	// Parked, Answered and Cancelled are the mean inbox entries, answers
	// recorded on the box, and cancelled updates per run. A deadline
	// auto-answer records nothing on the box, so Answered counts
	// outside answers only.
	Parked    float64
	Answered  float64
	Cancelled float64
	// ResumeP50Millis / ResumeP99Millis are nearest-rank percentiles of
	// the park-to-commit wall time of resolved entries (inbox mode
	// only) — the time a decision spends suspended in the inbox.
	ResumeP50Millis float64 `json:",omitempty"`
	ResumeP99Millis float64 `json:",omitempty"`
	// NumCPU and GoMaxProcs record the hardware the point ran on, so
	// published walls are attributable to a runner generation.
	NumCPU     int `json:",omitempty"`
	GoMaxProcs int `json:",omitempty"`
}

// Label names the point.
func (p InboxPoint) Label() string {
	return fmt.Sprintf("%s,%s", p.Mode, ModeLabel(p.Workers))
}

// Counts lists the point's gated counts.
func (p InboxPoint) Counts() []Count {
	return []Count{
		{"Runs", float64(p.Runs)},
		{"Aborts", p.Aborts},
		{"UserPolls", p.UserPolls},
		{"Parked", p.Parked},
		{"Answered", p.Answered},
		{"Cancelled", p.Cancelled},
	}
}

// InboxStudy runs the same seeded workload twice per worker count —
// once answered inline by the simulated user, once parked in a
// decision inbox and answered by its deadline policy — and reports
// both sides. With a non-empty dataDir every run executes against a
// write-ahead-logged store.
func InboxStudy(base workload.Config, workers int, runs int, dataDir string) ([]InboxPoint, error) {
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
		if err := measureInboxPoint(u, base, &p, runs, dataDir); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// measureInboxPoint folds `runs` executions of one mode into p.
func measureInboxPoint(u *workload.Universe, base workload.Config, p *InboxPoint, runs int, dataDir string) error {
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
		cfg := cc.Config{
			Tracker:            cc.Coarse{},
			User:               simuser.New(uint64(base.Seed)*31 + uint64(r)),
			MaxAbortsPerUpdate: maxAbortsPerUpdate,
			Workers:            p.Workers,
		}
		if p.Mode == "inbox" {
			cfg.Inbox = inbox.NewBox()
			cfg.InboxPolicy = inbox.Policy{Deadline: answerTicks, OnDeadline: inbox.DeadlineAutoAnswer}
		}
		ops := u.GenOpsSeeded(base.Seed*6151 + int64(r))
		m, elapsed, err := RunMode(st, u.Mappings, cfg, ops)
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
		p.Cancelled += float64(m.Cancelled)
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
	p.Cancelled /= n
	p.UpdatesPerSec = updates / n
	p.ResumeP50Millis = float64(resumes.QuantileDuration(0.50)) / float64(time.Millisecond)
	p.ResumeP99Millis = float64(resumes.QuantileDuration(0.99)) / float64(time.Millisecond)
	return nil
}

// InboxCSV renders the study as CSV, one row per point.
func InboxCSV(points []InboxPoint) string {
	var b strings.Builder
	b.WriteString("mode,workers,runs,aborts,wall_ms,upd_per_sec,user_polls,parked,answered,cancelled,resume_p50_ms,resume_p99_ms\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.3f,%.3f\n",
			p.Mode, p.Workers, p.Runs, p.Aborts, p.WallMillis,
			p.UpdatesPerSec, p.UserPolls, p.Parked, p.Answered, p.Cancelled,
			p.ResumeP50Millis, p.ResumeP99Millis)
	}
	return b.String()
}

// RenderInbox prints the study as an aligned table: the gated counts,
// then the walls.
func RenderInbox(points []InboxPoint) string {
	var b strings.Builder
	b.WriteString("decision-inbox study (inline busy-repoll vs park/deadline answer/resume)\n")
	fmt.Fprintf(&b, "%-18s%10s%12s%10s%10s%11s%12s%12s%16s%16s\n",
		"mode", "aborts", "user polls", "parked", "answered", "cancelled", "wall(ms)", "upd/s", "resume-p50(ms)", "resume-p99(ms)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s%10.1f%12.1f%10.1f%10.1f%11.1f%12.1f%12.1f%16.3f%16.3f\n",
			p.Label(), p.Aborts, p.UserPolls, p.Parked, p.Answered, p.Cancelled,
			p.WallMillis, p.UpdatesPerSec, p.ResumeP50Millis, p.ResumeP99Millis)
	}
	return b.String()
}
