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
// gate against still loads, keys each point to a distinct worker
// count, passes against itself, and flags a collapse of its parallel
// points.
func TestCommittedBaselinesLoadAndGate(t *testing.T) {
	for _, name := range []string{"parallel", "wal"} {
		t.Run(name, func(t *testing.T) {
			base, err := LoadParallelJSON(filepath.Join("..", "..", "bench", "BENCH_baseline_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]bool)
			for _, p := range base {
				if seen[p.Workers] && p.Workers != 0 {
					t.Fatalf("two baseline points share mode %s", p.Label())
				}
				seen[p.Workers] = true
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
