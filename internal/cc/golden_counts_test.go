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
// CommitBatches}. They were last re-pinned when the universes' initial
// databases stopped being renamed into a canonical order: the same
// facts, with the null IDs the serial build mints and in its order, so
// the workloads' deletes, drawn by position, pick other facts. A
// conflict-check or scheduler rewrite that moves any verdict, poll or
// drain moves one of these.
var goldenWant = map[string]goldenCounts{
	"sparse/1/NAIVE/step":      {56, 26, 3, 325, 0, 0, 2, 3},
	"sparse/1/NAIVE/stratum":   {30, 0, 0, 0, 0, 0, 2, 2},
	"sparse/1/NAIVE/flag":      {30, 0, 4, 0, 0, 4, 2, 3},
	"sparse/1/COARSE/step":     {44, 14, 4, 25, 0, 0, 2, 3},
	"sparse/1/COARSE/stratum":  {30, 0, 0, 0, 0, 0, 2, 2},
	"sparse/1/COARSE/flag":     {30, 0, 4, 0, 0, 4, 2, 3},
	"sparse/1/PRECISE/step":    {34, 4, 4, 2, 0, 0, 2, 3},
	"sparse/1/PRECISE/stratum": {30, 0, 0, 0, 0, 0, 2, 2},
	"sparse/1/PRECISE/flag":    {30, 0, 4, 0, 0, 4, 2, 3},
	"sparse/2/NAIVE/step":      {32, 2, 2, 0, 0, 0, 3, 3},
	"sparse/2/NAIVE/stratum":   {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/NAIVE/flag":      {30, 0, 4, 0, 0, 4, 3, 2},
	"sparse/2/COARSE/step":     {32, 2, 2, 0, 0, 0, 3, 3},
	"sparse/2/COARSE/stratum":  {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/COARSE/flag":     {30, 0, 4, 0, 0, 4, 3, 2},
	"sparse/2/PRECISE/step":    {32, 2, 2, 0, 0, 0, 3, 3},
	"sparse/2/PRECISE/stratum": {31, 1, 1, 0, 0, 0, 3, 2},
	"sparse/2/PRECISE/flag":    {30, 0, 4, 0, 0, 4, 3, 2},
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
	"dense/1/NAIVE/step":       {104, 64, 3, 981, 0, 0, 2, 5},
	"dense/1/NAIVE/stratum":    {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/NAIVE/flag":       {40, 0, 3, 0, 0, 3, 2, 3},
	"dense/1/COARSE/step":      {99, 59, 3, 365, 0, 0, 2, 5},
	"dense/1/COARSE/stratum":   {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/COARSE/flag":      {40, 0, 3, 0, 0, 3, 2, 3},
	"dense/1/PRECISE/step":     {48, 8, 4, 4, 0, 0, 2, 5},
	"dense/1/PRECISE/stratum":  {40, 0, 0, 0, 0, 0, 2, 2},
	"dense/1/PRECISE/flag":     {40, 0, 3, 0, 0, 3, 2, 3},
	"dense/2/NAIVE/step":       {90, 50, 6, 332, 0, 0, 6, 4},
	"dense/2/NAIVE/stratum":    {54, 14, 2, 42, 0, 0, 5, 3},
	"dense/2/NAIVE/flag":       {40, 0, 11, 0, 0, 11, 5, 3},
	"dense/2/COARSE/step":      {70, 30, 6, 76, 0, 0, 6, 4},
	"dense/2/COARSE/stratum":   {48, 8, 3, 7, 0, 0, 5, 3},
	"dense/2/COARSE/flag":      {40, 0, 11, 0, 0, 11, 5, 3},
	"dense/2/PRECISE/step":     {45, 5, 5, 0, 0, 0, 4, 3},
	"dense/2/PRECISE/stratum":  {45, 5, 3, 2, 0, 0, 5, 3},
	"dense/2/PRECISE/flag":     {40, 0, 11, 0, 0, 11, 5, 3},
	"dense/3/NAIVE/step":       {106, 66, 21, 427, 0, 0, 15, 4},
	"dense/3/NAIVE/stratum":    {48, 8, 6, 3, 0, 0, 22, 4},
	"dense/3/NAIVE/flag":       {40, 0, 118, 0, 0, 118, 22, 4},
	"dense/3/COARSE/step":      {97, 57, 21, 221, 0, 0, 15, 4},
	"dense/3/COARSE/stratum":   {48, 8, 6, 3, 0, 0, 22, 4},
	"dense/3/COARSE/flag":      {40, 0, 118, 0, 0, 118, 22, 4},
	"dense/3/PRECISE/step":     {63, 23, 21, 6, 0, 0, 15, 4},
	"dense/3/PRECISE/stratum":  {48, 8, 6, 2, 0, 0, 22, 4},
	"dense/3/PRECISE/flag":     {40, 0, 118, 0, 0, 118, 22, 4},
	"dense/4/NAIVE/step":       {648, 608, 66, 6661, 0, 0, 63, 5},
	"dense/4/NAIVE/stratum":    {412, 372, 53, 4171, 0, 0, 133, 5},
	"dense/4/NAIVE/flag":       {40, 0, 147, 0, 0, 147, 35, 2},
	"dense/4/COARSE/step":      {514, 474, 66, 2439, 0, 0, 64, 5},
	"dense/4/COARSE/stratum":   {316, 276, 55, 1609, 0, 0, 133, 5},
	"dense/4/COARSE/flag":      {40, 0, 147, 0, 0, 147, 35, 2},
	"dense/4/PRECISE/step":     {150, 110, 80, 51, 0, 0, 72, 5},
	"dense/4/PRECISE/stratum":  {147, 107, 58, 133, 0, 0, 129, 5},
	"dense/4/PRECISE/flag":     {40, 0, 147, 0, 0, 147, 35, 2},
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
