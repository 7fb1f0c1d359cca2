package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pts(vals ...float64) []ParallelPoint {
	// vals alternate (workers, upd/s).
	var out []ParallelPoint
	for i := 0; i+1 < len(vals); i += 2 {
		out = append(out, ParallelPoint{Workers: int(vals[i]), UpdatesPerSec: vals[i+1]})
	}
	return out
}

func TestCheckRegressionNormalized(t *testing.T) {
	// Baseline: serial 100, 4 workers 300 (3x speedup).
	baseline := pts(0, 100, 4, 300)
	// Current machine is half as fast but keeps the speedup: pass.
	if err := CheckRegression(pts(0, 50, 4, 150), baseline, 20); err != nil {
		t.Fatalf("proportional slowdown flagged: %v", err)
	}
	// Speedup collapses to 1.5x (-50%): fail.
	err := CheckRegression(pts(0, 50, 4, 75), baseline, 20)
	if err == nil {
		t.Fatal("collapsed speedup not flagged")
	}
	if !strings.Contains(err.Error(), "speedup-vs-serial") {
		t.Fatalf("expected normalized comparison, got: %v", err)
	}
	// Within tolerance (-10%): pass.
	if err := CheckRegression(pts(0, 50, 4, 135), baseline, 20); err != nil {
		t.Fatalf("10%% drop flagged at 20%% tolerance: %v", err)
	}
}

func TestCheckRegressionRawFallback(t *testing.T) {
	// No serial point on either side: raw upd/s comparison.
	baseline := pts(4, 300)
	if err := CheckRegression(pts(4, 100), baseline, 20); err == nil {
		t.Fatal("raw regression not flagged without serial points")
	}
	if err := CheckRegression(pts(4, 290), baseline, 20); err != nil {
		t.Fatalf("raw pass flagged: %v", err)
	}
	// Modes missing from current are skipped, not failed.
	if err := CheckRegression(pts(2, 1), baseline, 20); err != nil {
		t.Fatalf("missing mode flagged: %v", err)
	}
}

func TestCheckRegressionCpusDimension(t *testing.T) {
	// Two matrix points share a worker count and differ only in the
	// cpu cap; the mode key must keep them apart.
	baseline := []ParallelPoint{
		{Workers: 0, Cpus: 1, UpdatesPerSec: 100},
		{Workers: 4, Cpus: 1, UpdatesPerSec: 120},
		{Workers: 4, Cpus: 4, UpdatesPerSec: 360},
	}
	// The cpus=4 point collapsed to the cpus=1 rate. If cpus were not
	// part of the key, the cpus=4 baseline row would happily match the
	// healthy cpus=1 current row and the regression would pass.
	current := []ParallelPoint{
		{Workers: 0, Cpus: 1, UpdatesPerSec: 100},
		{Workers: 4, Cpus: 1, UpdatesPerSec: 120},
		{Workers: 4, Cpus: 4, UpdatesPerSec: 120},
	}
	err := CheckRegression(current, baseline, 20)
	if err == nil {
		t.Fatal("collapsed cpus=4 scaling not flagged")
	}
	if !strings.Contains(err.Error(), "cpus=4") {
		t.Fatalf("failure not attributed to the cpus=4 mode: %v", err)
	}
	// Healthy scaling passes.
	if err := CheckRegression(baseline, baseline, 20); err != nil {
		t.Fatalf("self-comparison flagged: %v", err)
	}
	// Legacy baselines without a Cpus field (zero value) keep matching
	// cpus=1 current points.
	legacy := pts(0, 100, 4, 120)
	if err := CheckRegression(current[:2], legacy, 20); err != nil {
		t.Fatalf("legacy baseline no longer matches cpus=1 points: %v", err)
	}
}

func TestCheckRegressionReadThroughput(t *testing.T) {
	mk := func(serialReads, parReads float64) []ParallelPoint {
		return []ParallelPoint{
			{Workers: 0, Cpus: 1, Readers: 4, UpdatesPerSec: 100, ReadsPerSec: serialReads},
			{Workers: 4, Cpus: 4, Readers: 4, UpdatesPerSec: 300, ReadsPerSec: parReads},
		}
	}
	// Baseline read scaling 3x; current machine slower but same ratio.
	baseline := mk(1000, 3000)
	if err := CheckRegression(mk(500, 1500), baseline, 20); err != nil {
		t.Fatalf("proportional read slowdown flagged: %v", err)
	}
	// Read scaling collapses to 1x while update throughput holds.
	err := CheckRegression(mk(500, 500), baseline, 20)
	if err == nil {
		t.Fatal("collapsed read scaling not flagged")
	}
	if !strings.Contains(err.Error(), "read-speedup-vs-serial") {
		t.Fatalf("expected normalized read comparison, got: %v", err)
	}
	// Baselines without read numbers gate nothing on the read axis.
	if err := CheckRegression(mk(500, 500), pts(0, 100, 4, 300), 20); err != nil {
		t.Fatalf("read gate fired against a readless baseline: %v", err)
	}
}

func TestParallelJSONRoundTrip(t *testing.T) {
	points := []ParallelPoint{
		{Workers: 0, Runs: 2, Aborts: 1.5, WallMillis: 12.5, UpdatesPerSec: 80},
		{Workers: 8, Runs: 2, Aborts: 3, WallMillis: 4, UpdatesPerSec: 250},
	}
	data, err := ParallelJSON(points)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParallelJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) || got[1].UpdatesPerSec != 250 || got[0].Workers != 0 {
		t.Fatalf("round trip mangled points: %+v", got)
	}
	if _, err := LoadParallelJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
}

// TestCommittedBaselinesLoadAndGate: every baseline the CI bench jobs
// gate against still loads, keys each point to a distinct
// (workers, cpus) mode, passes against itself, and flags a collapse of
// its parallel points.
func TestCommittedBaselinesLoadAndGate(t *testing.T) {
	for _, name := range []string{"parallel", "wal", "multicore"} {
		t.Run(name, func(t *testing.T) {
			base, err := LoadParallelJSON(filepath.Join("..", "..", "bench", "BENCH_baseline_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			type mode struct{ workers, cpus int }
			seen := make(map[mode]bool)
			for _, p := range base {
				m := mode{p.Workers, max(p.Cpus, 1)}
				if seen[m] && p.Workers != 0 {
					t.Fatalf("two baseline points share mode %s", p.Label())
				}
				seen[m] = true
			}
			if err := CheckRegression(base, base, 20); err != nil {
				t.Fatalf("baseline fails against itself: %v", err)
			}
			collapsed := append([]ParallelPoint(nil), base...)
			for i := range collapsed {
				if collapsed[i].Workers > 0 {
					collapsed[i].UpdatesPerSec /= 2
				}
			}
			if err := CheckRegression(collapsed, base, 20); err == nil {
				t.Fatal("halved parallel throughput not flagged")
			}
		})
	}
	t.Run("inbox", func(t *testing.T) {
		base, err := LoadInboxJSON(filepath.Join("..", "..", "bench", "BENCH_baseline_inbox.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInboxRegression(base, base, 20); err != nil {
			t.Fatalf("baseline fails against itself: %v", err)
		}
		collapsed := append([]InboxPoint(nil), base...)
		for i := range collapsed {
			if collapsed[i].Mode == "inbox" {
				collapsed[i].UpdatesPerSec /= 2
			}
		}
		if err := CheckInboxRegression(collapsed, base, 20); err == nil {
			t.Fatal("halved inbox throughput not flagged")
		}
	})
}
