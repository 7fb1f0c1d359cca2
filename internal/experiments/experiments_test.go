package experiments

import (
	"strings"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/inbox"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

func tinyBase() workload.Config {
	cfg := workload.Quick()
	cfg.Relations = 12
	cfg.Mappings = 12
	cfg.InitialTuples = 40
	cfg.Updates = 12
	cfg.Constants = 8
	return cfg
}

func TestRunTinyFigure(t *testing.T) {
	fig, err := Figure3(tinyBase(), Options{
		Sweep:       []int{4, 8, 12},
		Trackers:    []string{"NAIVE", "COARSE", "PRECISE"},
		Runs:        2,
		NaivePoints: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// NAIVE runs only the first two sweep points.
	if _, ok := fig.point(12, "NAIVE"); ok {
		t.Fatal("NAIVE must be capped to the first points")
	}
	if _, ok := fig.point(4, "NAIVE"); !ok {
		t.Fatal("NAIVE missing from first point")
	}
	for _, m := range []int{4, 8, 12} {
		for _, tr := range []string{"COARSE", "PRECISE"} {
			p, ok := fig.point(m, tr)
			if !ok {
				t.Fatalf("missing point m=%d %s", m, tr)
			}
			if p.UpdatesRun < float64(tinyBase().Updates) {
				t.Fatalf("updates run = %.1f < submitted", p.UpdatesRun)
			}
			if p.PerUpdateMicros <= 0 {
				t.Fatalf("per-update time missing for m=%d %s", m, tr)
			}
		}
	}
	out := fig.Render()
	for _, want := range []string{"Figure 3", "(a) total number of aborts",
		"(b) cascading abort requests", "(c) slowdown", "mappings"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "figure,workload,mappings") ||
		len(strings.Split(strings.TrimSpace(csv), "\n")) < 2 {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
	if len(fig.Slowdown()) != 3 {
		t.Fatalf("slowdown points = %v", fig.Slowdown())
	}
}

func TestRunMixedFigure(t *testing.T) {
	fig, err := Figure4(tinyBase(), Options{
		Sweep:    []int{6, 12},
		Trackers: []string{"COARSE", "PRECISE"},
		Runs:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.Workload, "mixed 80/20") {
		t.Fatalf("workload label = %q", fig.Workload)
	}
	if len(fig.Points) != 4 {
		t.Fatalf("points = %d", len(fig.Points))
	}
}

func TestRunValidation(t *testing.T) {
	cfg := tinyBase()
	_, err := Figure3(cfg, Options{Sweep: []int{999}})
	if err == nil {
		t.Fatal("sweep beyond Base.Mappings accepted")
	}
	if _, err := Figure3(cfg, Options{Sweep: []int{4}, Trackers: []string{"bogus"}, Runs: 1}); err == nil {
		t.Fatal("unknown tracker accepted")
	}
}

func TestLatencyStudy(t *testing.T) {
	cfg := tinyBase()
	points, err := LatencyStudy(cfg, []int{0, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
	out := RenderLatency(points)
	if !strings.Contains(out, "latency") || !strings.Contains(out, "frontier-ops") {
		t.Fatalf("render:\n%s", out)
	}
	if _, err := LatencyStudy(cfg, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunModeSerialRejectsInbox: the serial reference point cannot park
// an update, so RunMode refuses Workers 0 with an Inbox before the
// store sees a write; without one it runs and commits every update
// once.
func TestRunModeSerialRejectsInbox(t *testing.T) {
	u, err := workload.Build(tinyBase())
	if err != nil {
		t.Fatal(err)
	}
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	ops := u.GenOpsSeeded(1)
	seq, dump := st.CurrentSeq(), st.Dump(1<<30)
	box := inbox.NewBox()
	cfg := cc.Config{User: simuser.New(1), Inbox: box}
	if _, _, err := RunMode(st, u.Mappings, cfg, ops); err == nil {
		t.Fatal("Workers 0 with an inbox accepted")
	}
	if st.CurrentSeq() != seq || st.Dump(1<<30) != dump {
		t.Fatal("the rejected run touched the store")
	}
	if parked, _, _, _, _ := box.Counters(); parked != 0 {
		t.Fatalf("the rejected run parked %d updates", parked)
	}
	cfg.Inbox = nil
	m, _, err := RunMode(st, u.Mappings, cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != len(ops) || m.Runs != len(ops) || m.Aborts != 0 || m.CommitBatches != len(ops) {
		t.Fatalf("serial point metrics %+v for %d updates", m, len(ops))
	}
	if st.CurrentSeq() == seq {
		t.Fatal("the serial run wrote nothing")
	}
}
