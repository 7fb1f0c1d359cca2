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
// aborts, abort requests by cause, flagged conflicts, live user polls
// and commit-frontier drains.
type goldenCounts struct {
	Runs, Aborts, Direct, Cascading, Removal, Flagged, UserPolls, CommitBatches int
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

// goldenColumns are the cooperative configurations every universe, seed
// and tracker runs under: the paper's round-robin-step prevention, a
// whole stratum per scheduling opportunity, and detection that flags
// instead of aborting.
var goldenColumns = []struct {
	name   string
	policy cc.Policy
	mode   cc.Mode
}{
	{"step", cc.PolicyRoundRobinStep, cc.ModePrevent},
	{"stratum", cc.PolicyRoundRobinStratum, cc.ModePrevent},
	{"flag", cc.PolicyRoundRobinStep, cc.ModeFlag},
}

// goldenWant holds the counts keyed "universe/seed/TRACKER/column" as
// {Runs, Aborts, Direct, Cascading, Removal, Flagged, UserPolls,
// CommitBatches}. The step column's first five values predate the warm
// conflict checker; the rest were recorded before the two schedulers
// shared one transaction core. A conflict-check or scheduler rewrite
// that moves any verdict, poll or drain moves one of these.
var goldenWant = map[string]goldenCounts{
	"sparse/1/NAIVE/step":      {51, 21, 1, 210, 0, 0, 1, 3},
	"sparse/1/NAIVE/stratum":   {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/1/NAIVE/flag":      {30, 0, 1, 0, 0, 1, 1, 3},
	"sparse/1/COARSE/step":     {36, 6, 1, 8, 0, 0, 1, 3},
	"sparse/1/COARSE/stratum":  {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/1/COARSE/flag":     {30, 0, 1, 0, 0, 1, 1, 3},
	"sparse/1/PRECISE/step":    {31, 1, 1, 0, 0, 0, 1, 3},
	"sparse/1/PRECISE/stratum": {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/1/PRECISE/flag":    {30, 0, 1, 0, 0, 1, 1, 3},
	"sparse/2/NAIVE/step":      {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/NAIVE/stratum":   {30, 0, 0, 0, 0, 0, 3, 2},
	"sparse/2/NAIVE/flag":      {30, 0, 8, 0, 0, 8, 3, 2},
	"sparse/2/COARSE/step":     {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/COARSE/stratum":  {30, 0, 0, 0, 0, 0, 3, 2},
	"sparse/2/COARSE/flag":     {30, 0, 8, 0, 0, 8, 3, 2},
	"sparse/2/PRECISE/step":    {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/PRECISE/stratum": {30, 0, 0, 0, 0, 0, 3, 2},
	"sparse/2/PRECISE/flag":    {30, 0, 8, 0, 0, 8, 3, 2},
	"sparse/3/NAIVE/step":      {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/3/NAIVE/stratum":   {30, 0, 0, 0, 0, 0, 0, 1},
	"sparse/3/NAIVE/flag":      {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/3/COARSE/step":     {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/3/COARSE/stratum":  {30, 0, 0, 0, 0, 0, 0, 1},
	"sparse/3/COARSE/flag":     {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/3/PRECISE/step":    {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/3/PRECISE/stratum": {30, 0, 0, 0, 0, 0, 0, 1},
	"sparse/3/PRECISE/flag":    {30, 0, 0, 0, 0, 0, 0, 3},
	"sparse/4/NAIVE/step":      {30, 0, 0, 0, 0, 0, 1, 4},
	"sparse/4/NAIVE/stratum":   {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/4/NAIVE/flag":      {30, 0, 0, 0, 0, 0, 1, 4},
	"sparse/4/COARSE/step":     {30, 0, 0, 0, 0, 0, 1, 4},
	"sparse/4/COARSE/stratum":  {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/4/COARSE/flag":     {30, 0, 0, 0, 0, 0, 1, 4},
	"sparse/4/PRECISE/step":    {30, 0, 0, 0, 0, 0, 1, 4},
	"sparse/4/PRECISE/stratum": {30, 0, 0, 0, 0, 0, 1, 2},
	"sparse/4/PRECISE/flag":    {30, 0, 0, 0, 0, 0, 1, 4},
	"dense/1/NAIVE/step":       {106, 66, 4, 984, 0, 0, 2, 4},
	"dense/1/NAIVE/stratum":    {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/NAIVE/flag":       {40, 0, 13, 0, 0, 13, 2, 3},
	"dense/1/COARSE/step":      {98, 58, 4, 353, 0, 0, 2, 4},
	"dense/1/COARSE/stratum":   {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/COARSE/flag":      {40, 0, 13, 0, 0, 13, 2, 3},
	"dense/1/PRECISE/step":     {48, 8, 4, 6, 0, 0, 2, 3},
	"dense/1/PRECISE/stratum":  {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/PRECISE/flag":     {40, 0, 13, 0, 0, 13, 2, 3},
	"dense/2/NAIVE/step":       {196, 156, 28, 856, 0, 0, 19, 9},
	"dense/2/NAIVE/stratum":    {116, 76, 16, 402, 0, 0, 21, 3},
	"dense/2/NAIVE/flag":       {40, 0, 45, 0, 0, 45, 17, 5},
	"dense/2/COARSE/step":      {147, 107, 26, 260, 0, 0, 19, 9},
	"dense/2/COARSE/stratum":   {105, 65, 16, 199, 0, 0, 21, 3},
	"dense/2/COARSE/flag":      {40, 0, 45, 0, 0, 45, 17, 5},
	"dense/2/PRECISE/step":     {81, 41, 28, 11, 3, 0, 19, 6},
	"dense/2/PRECISE/stratum":  {66, 26, 16, 11, 2, 0, 21, 3},
	"dense/2/PRECISE/flag":     {40, 0, 45, 0, 0, 45, 17, 5},
	"dense/3/NAIVE/step":       {159, 119, 31, 1185, 0, 0, 32, 4},
	"dense/3/NAIVE/stratum":    {174, 134, 20, 1387, 0, 0, 59, 4},
	"dense/3/NAIVE/flag":       {40, 0, 122, 0, 0, 122, 30, 3},
	"dense/3/COARSE/step":      {138, 98, 31, 537, 0, 0, 32, 4},
	"dense/3/COARSE/stratum":   {149, 109, 20, 747, 0, 0, 59, 4},
	"dense/3/COARSE/flag":      {40, 0, 122, 0, 0, 122, 30, 3},
	"dense/3/PRECISE/step":     {76, 36, 31, 17, 0, 0, 32, 4},
	"dense/3/PRECISE/stratum":  {72, 32, 23, 26, 0, 0, 58, 4},
	"dense/3/PRECISE/flag":     {40, 0, 122, 0, 0, 122, 30, 3},
	"dense/4/NAIVE/step":       {351, 311, 31, 2929, 0, 0, 28, 4},
	"dense/4/NAIVE/stratum":    {184, 144, 15, 1261, 0, 0, 38, 4},
	"dense/4/NAIVE/flag":       {40, 0, 81, 0, 0, 81, 19, 2},
	"dense/4/COARSE/step":      {264, 224, 31, 768, 0, 0, 28, 4},
	"dense/4/COARSE/stratum":   {151, 111, 15, 454, 0, 0, 38, 4},
	"dense/4/COARSE/flag":      {40, 0, 81, 0, 0, 81, 19, 2},
	"dense/4/PRECISE/step":     {88, 48, 36, 15, 0, 0, 28, 4},
	"dense/4/PRECISE/stratum":  {56, 16, 14, 3, 0, 0, 27, 4},
	"dense/4/PRECISE/flag":     {40, 0, 81, 0, 0, 81, 19, 2},
}

// TestTrackerCountsGolden pins the paper's §6 counts — executions,
// aborts, direct, cascading and removal abort requests, flagged
// conflicts — plus user polls and commit drains for NAIVE, COARSE and
// PRECISE on fixed random-universe seeds under the deterministic
// cooperative scheduler: a first slice of the §6 figure golden (ROADMAP
// 6c), proving conflict-check and scheduler rewrites leave every verdict
// where it was.
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
				for _, col := range goldenColumns {
					st, err := u.NewStore()
					if err != nil {
						t.Fatal(err)
					}
					m, err := cc.NewScheduler(st, u.Mappings, cc.Config{
						Tracker: tr, Policy: col.policy, Mode: col.mode,
						User: simuser.New(uint64(seed)), MaxAbortsPerUpdate: 1000,
					}).Run(ops)
					key := fmt.Sprintf("%s/%d/%s/%s", gu.name, seed, tr.Name(), col.name)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					c := goldenCounts{m.Runs, m.Aborts, m.DirectAbortRequests, m.CascadingAbortRequests,
						m.RemovalAbortRequests, m.Flagged, m.UserPolls, m.CommitBatches}
					got = append(got, fmt.Sprintf("\t%q: {%d, %d, %d, %d, %d, %d, %d, %d},", key,
						c.Runs, c.Aborts, c.Direct, c.Cascading, c.Removal, c.Flagged, c.UserPolls, c.CommitBatches))
					if want, ok := goldenWant[key]; !ok || want != c {
						t.Errorf("%s: got %+v, want %+v", key, c, want)
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("current counts:\n%s", strings.Join(got, "\n"))
	}
}
