package experiments

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"youtopia/internal/workload"
)

// bumped returns a copy of points whose point i has the named count
// raised by one. The count's name must be the point's field name.
func bumped[P StudyPoint](t *testing.T, points []P, i int, name string) []P {
	t.Helper()
	out := slices.Clone(points)
	f := reflect.ValueOf(&out[i]).Elem().FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%s has no field %s", points[i].Label(), name)
	}
	if f.CanFloat() {
		f.SetFloat(f.Float() + 1)
	} else {
		f.SetInt(f.Int() + 1)
	}
	return out
}

// requireGateNames checks that the gate passes a study against itself,
// and that a baseline with any one count of any one point raised by one
// fails, naming the point and the count.
func requireGateNames[P StudyPoint](t *testing.T, points []P) {
	t.Helper()
	if err := CheckCounts(points, points); err != nil {
		t.Fatalf("a study fails against itself: %v", err)
	}
	for i, p := range points {
		for _, c := range p.Counts() {
			err := CheckCounts(points, bumped(t, points, i, c.Name))
			if err == nil {
				t.Fatalf("%s: one more %s passed the gate", p.Label(), c.Name)
			}
			if want := p.Label() + ": " + c.Name + " "; !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: one more %s: the failure does not name it:\n%v", p.Label(), c.Name, err)
			}
		}
	}
}

func TestCheckCountsNamesPointAndField(t *testing.T) {
	parallel := []ParallelPoint{
		{Workers: 0, Runs: 2, CommitBatches: 150, WALSyncs: 1, WallMillis: 2, UpdatesPerSec: 75000},
		{Workers: 4, Runs: 2, Aborts: 29.5, CommitBatches: 27.5, WALSyncs: 1, WallMillis: 6, UpdatesPerSec: 25000},
	}
	requireGateNames(t, parallel)
	inbox := []InboxPoint{
		{Mode: "inline", Workers: 4, Runs: 3, Aborts: 3, UserPolls: 11.5},
		{Mode: "inbox", Workers: 4, Runs: 3, Aborts: 37.5, UserPolls: 18.5, Parked: 10.5},
	}
	requireGateNames(t, inbox)

	// The walls are not gated: a tenfold slowdown passes.
	slow := slices.Clone(parallel)
	for i := range slow {
		slow[i].WallMillis *= 10
		slow[i].UpdatesPerSec /= 10
	}
	if err := CheckCounts(slow, parallel); err != nil {
		t.Fatalf("slower walls failed the gate: %v", err)
	}
	// A point only one side has fails, named.
	err := CheckCounts(parallel[:1], parallel)
	if err == nil || !strings.Contains(err.Error(), "workers=4: in the baseline, not in the study") {
		t.Fatalf("a point missing from the study: %v", err)
	}
	err = CheckCounts(parallel, parallel[1:])
	if err == nil || !strings.Contains(err.Error(), "serial: in the study, not in the baseline") {
		t.Fatalf("a point missing from the baseline: %v", err)
	}
}

func TestParallelJSONRoundTrip(t *testing.T) {
	points := []ParallelPoint{
		{Workers: 0, Runs: 2, Aborts: 1.5, WallMillis: 12.5, UpdatesPerSec: 80},
		{Workers: 8, Runs: 2, Aborts: 1.0 / 3, WallMillis: 4, UpdatesPerSec: 250},
	}
	path := filepath.Join(t.TempDir(), "BENCH_parallel.json")
	if err := WriteStudy(path, points); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStudy[ParallelPoint](path)
	if err != nil {
		t.Fatal(err)
	}
	// Means go through JSON bit for bit, so a loaded baseline gates
	// exactly.
	if !slices.Equal(got, points) {
		t.Fatalf("round trip mangled points: %+v", got)
	}
	if _, err := LoadStudy[ParallelPoint](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must error")
	}
}

// withoutWalls returns points with the wall fields zeroed: what is left
// is what a replay must repeat.
func withoutWalls[P any](points []P) []P {
	out := slices.Clone(points)
	for i := range out {
		v := reflect.ValueOf(&out[i]).Elem()
		for _, name := range []string{"WallMillis", "UpdatesPerSec", "ResumeP50Millis", "ResumeP99Millis"} {
			if f := v.FieldByName(name); f.IsValid() {
				f.SetFloat(0)
			}
		}
	}
	return out
}

// replayPoint is a study point a replay can be compared with.
type replayPoint interface {
	StudyPoint
	comparable
}

// requireReplay runs a study twice and requires both runs to report
// the same points outside the walls.
func requireReplay[P replayPoint](t *testing.T, study func(run int) ([]P, error)) []P {
	t.Helper()
	a, err := study(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := study(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(withoutWalls(a), withoutWalls(b)) {
		t.Fatalf("the study did not replay:\n%+v\n%+v", a, b)
	}
	return a
}

// TestStudiesReplay runs each gated study twice with one seed — the
// round-width study in memory and durable, and the inbox study — and
// requires both runs to report the same points outside the walls.
func TestStudiesReplay(t *testing.T) {
	base := workload.Quick()
	base.Updates = 60
	workers := []int{0, 1, 4}
	t.Run("parallel", func(t *testing.T) {
		requireReplay(t, func(int) ([]ParallelPoint, error) { return ParallelStudy(base, workers, 2, "") })
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		points := requireReplay(t, func(run int) ([]ParallelPoint, error) {
			return ParallelStudy(base, workers, 2, filepath.Join(dir, fmt.Sprint(run)))
		})
		if points[0].WALSyncs == 0 {
			t.Fatal("no WAL sync: the durable side is not exercised")
		}
	})
	t.Run("inbox", func(t *testing.T) {
		points := requireReplay(t, func(int) ([]InboxPoint, error) { return InboxStudy(base, 4, 2, "") })
		if points[1].Parked == 0 {
			t.Fatal("no update parked: the inbox side is not exercised")
		}
	})
}

// TestCommittedBaselinesLoadAndGate: every baseline the CI study steps
// gate against loads, keys each point to a distinct mode, gates every
// count of every point exactly, and holds the counts that the CI step's
// study — run here with the step's parameters — reports today.
func TestCommittedBaselinesLoadAndGate(t *testing.T) {
	path := func(name string) string {
		return filepath.Join("..", "..", "bench", "BENCH_baseline_"+name+".json")
	}
	// -preset quick -updates 150 -runs 8 -workers 0,1,2,4,8
	wide := workload.Quick()
	wide.Updates = 150
	for _, name := range []string{"parallel", "wal"} {
		t.Run(name, func(t *testing.T) {
			base, err := LoadStudy[ParallelPoint](path(name))
			if err != nil {
				t.Fatal(err)
			}
			requireDistinctLabels(t, base)
			requireGateNames(t, base)
			dataDir := ""
			if name == "wal" {
				dataDir = t.TempDir()
			}
			points, err := ParallelStudy(wide, []int{0, 1, 2, 4, 8}, 8, dataDir)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckCounts(points, base); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("inbox", func(t *testing.T) {
		base, err := LoadStudy[InboxPoint](path("inbox"))
		if err != nil {
			t.Fatal(err)
		}
		requireDistinctLabels(t, base)
		requireGateNames(t, base)
		// -preset quick -runs 3 -inbox-workers 4
		points, err := InboxStudy(workload.Quick(), 4, 3, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckCounts(points, base); err != nil {
			t.Fatal(err)
		}
	})
}

func requireDistinctLabels[P StudyPoint](t *testing.T, points []P) {
	t.Helper()
	seen := make(map[string]bool)
	for _, p := range points {
		if seen[p.Label()] {
			t.Fatalf("two baseline points share mode %s", p.Label())
		}
		seen[p.Label()] = true
	}
}
