package cc_test

import (
	"fmt"
	"strings"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// goldenCounts is the §6 outcome of one cooperative run: executions,
// aborts and abort requests by cause.
type goldenCounts struct {
	Runs, Aborts, Direct, Cascading, Removal int
}

// goldenUniverses are the fixed random universes the golden pins: the
// Theorem 4.4 battery's shape with a longer workload, and a denser one
// where every tracker aborts and PRECISE's removal check fires.
var goldenUniverses = []struct {
	name string
	cfg  workload.Config
}{
	{"sparse", workload.Config{Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8,
		MaxAtomsPerSide: 2, InitialTuples: 30, Updates: 30, InsertPct: 80}},
	{"dense", workload.Config{Relations: 12, MinArity: 1, MaxArity: 4, Constants: 8, Mappings: 16,
		MaxAtomsPerSide: 3, InitialTuples: 60, Updates: 40, InsertPct: 80}},
}

// goldenWant holds the counts recorded at the parent of the warm-checker
// change (PR 21), keyed "universe/seed/TRACKER" as {Runs, Aborts,
// Direct, Cascading, Removal}. A conflict-check rewrite that moves any
// verdict moves one of these.
var goldenWant = map[string]goldenCounts{
	"sparse/1/NAIVE":   {51, 21, 1, 210, 0},
	"sparse/1/COARSE":  {36, 6, 1, 8, 0},
	"sparse/1/PRECISE": {31, 1, 1, 0, 0},
	"sparse/2/NAIVE":   {31, 1, 1, 0, 0},
	"sparse/2/COARSE":  {31, 1, 1, 0, 0},
	"sparse/2/PRECISE": {31, 1, 1, 0, 0},
	"sparse/3/NAIVE":   {30, 0, 0, 0, 0},
	"sparse/3/COARSE":  {30, 0, 0, 0, 0},
	"sparse/3/PRECISE": {30, 0, 0, 0, 0},
	"sparse/4/NAIVE":   {30, 0, 0, 0, 0},
	"sparse/4/COARSE":  {30, 0, 0, 0, 0},
	"sparse/4/PRECISE": {30, 0, 0, 0, 0},
	"dense/1/NAIVE":    {106, 66, 4, 984, 0},
	"dense/1/COARSE":   {98, 58, 4, 353, 0},
	"dense/1/PRECISE":  {48, 8, 4, 6, 0},
	"dense/2/NAIVE":    {196, 156, 28, 856, 0},
	"dense/2/COARSE":   {147, 107, 26, 260, 0},
	"dense/2/PRECISE":  {81, 41, 28, 11, 3},
	"dense/3/NAIVE":    {159, 119, 31, 1185, 0},
	"dense/3/COARSE":   {138, 98, 31, 537, 0},
	"dense/3/PRECISE":  {76, 36, 31, 17, 0},
	"dense/4/NAIVE":    {351, 311, 31, 2929, 0},
	"dense/4/COARSE":   {264, 224, 31, 768, 0},
	"dense/4/PRECISE":  {88, 48, 36, 15, 0},
}

// TestTrackerCountsGolden pins the paper's §6 counts — executions,
// aborts, direct, cascading and removal abort requests — for NAIVE,
// COARSE and PRECISE on fixed random-universe seeds under the
// deterministic cooperative scheduler: a first slice of the §6 figure
// golden (ROADMAP 6c), proving conflict-check rewrites leave every
// verdict where it was.
func TestTrackerCountsGolden(t *testing.T) {
	var got []string
	for _, gu := range goldenUniverses {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := gu.cfg
			cfg.Seed = seed
			u, err := workload.Build(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", gu.name, seed, err)
			}
			ops := u.GenOpsSeeded(900 + seed)
			for _, tr := range []cc.Tracker{cc.Naive{}, cc.Coarse{}, cc.Precise{}} {
				st, err := u.NewStore()
				if err != nil {
					t.Fatal(err)
				}
				m, err := cc.NewScheduler(st, u.Mappings, cc.Config{
					Tracker: tr, Policy: cc.PolicyRoundRobinStep,
					User: simuser.New(uint64(seed)), MaxAbortsPerUpdate: 1000,
				}).Run(ops)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", gu.name, seed, tr.Name(), err)
				}
				key := fmt.Sprintf("%s/%d/%s", gu.name, seed, tr.Name())
				c := goldenCounts{m.Runs, m.Aborts, m.DirectAbortRequests, m.CascadingAbortRequests, m.RemovalAbortRequests}
				got = append(got, fmt.Sprintf("\t%q: {%d, %d, %d, %d, %d},", key, c.Runs, c.Aborts, c.Direct, c.Cascading, c.Removal))
				if want, ok := goldenWant[key]; !ok || want != c {
					t.Errorf("%s: got %+v, want %+v", key, c, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("current counts:\n%s", strings.Join(got, "\n"))
	}
}
