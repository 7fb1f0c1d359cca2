package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// initialDigest hashes a universe's initial database in order, one
// collision-free tuple key per line.
func initialDigest(u *Universe) string {
	h := sha256.New()
	for _, t := range u.Initial {
		io.WriteString(h, t.Key())
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInitialDBGolden pins the initial databases the repository's
// benchmark runs over, byte for byte: every count the benchmark reports
// (executions per update, chase steps, aborts) depends on them, so a
// change to the generator or to canonicalizeNulls — its tie-breaks, its
// string order, the round whose colors it ends on — must show up here
// rather than as an unexplained shift in those counts. That round is the
// effective one, |nulls|: rounds skipped because the color vector
// repeats leave these digests alone (TestCanonicalizeRounds pins those).
func TestInitialDBGolden(t *testing.T) {
	bench := func(seed int64) Config {
		cfg := Default()
		cfg.InitialTuples = 1000
		cfg.SetupWorkers = -1
		cfg.Seed = seed
		return cfg
	}
	quick := Quick()
	quick.SetupWorkers = -1
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		want string
	}{
		{"benchmark-seed1", bench(1), 2039, "47f017b62c1e80a7a6d5df135eb2179740469b9b6e9be229db1b977673347f12"},
		{"benchmark-seed2", bench(2), 1960, "ae88194b3d3ce1812a11d237cd3955d10adc32abed69005c77ce70b0c0faab25"},
		{"quick", quick, 608, "c2201bd6daef9cc38aecef2ce61c37e13194adde5e802e3598b468429f9d1cf6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.cfg.Relations == 100 {
				t.Skip("paper-scale universe")
			}
			u, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := initialDigest(u); len(u.Initial) != tc.n || got != tc.want {
				t.Fatalf("initial database changed: %d tuples, sha256 %s; want %d, %s",
					len(u.Initial), got, tc.n, tc.want)
			}
		})
	}
}

// TestCanonicalizeRounds pins how many refinement rounds the
// canonicalization runs on the universes the repository measures. All
// three cycle or settle early: benchmark universe 1 (1,043 nulls)
// repeats round 1's colors at round 171 and would run 1,044 rounds
// without the jump, Quick() (307 nulls) repeats round 2's at round 110
// and would run 308, and universe 2 (937 nulls) is unchanged by round 2.
// Refinement never reads null identities, so the canonical facts take
// as many rounds as the facts they were renamed from.
func TestCanonicalizeRounds(t *testing.T) {
	bench := func(seed int64) Config {
		cfg := Default()
		cfg.InitialTuples = 1000
		cfg.SetupWorkers = -1
		cfg.Seed = seed
		return cfg
	}
	quick := Quick()
	quick.SetupWorkers = -1
	for _, tc := range []struct {
		name   string
		cfg    Config
		rounds int
	}{
		{"benchmark-seed1", bench(1), 194},
		{"benchmark-seed2", bench(2), 3},
		{"quick", quick, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.cfg.Relations == 100 {
				t.Skip("paper-scale universe")
			}
			u, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, rounds := refineNullColors(u.Initial); rounds != tc.rounds {
				t.Fatalf("refinement ran %d rounds, want %d", rounds, tc.rounds)
			}
		})
	}
}
