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
// change to the generator, to the serial execution that builds them or
// to the null IDs its chases mint must show up here rather than as an
// unexplained shift in those counts.
func TestInitialDBGolden(t *testing.T) {
	bench := func(seed int64) Config {
		cfg := Default()
		cfg.InitialTuples = 1000
		cfg.Seed = seed
		return cfg
	}
	quick := Quick()
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		want string
	}{
		{"benchmark-seed1", bench(1), 2039, "c4ada226de7a389900616b4bb3acb5ad95c69e9978114bf0e58a6decdd5090a0"},
		{"benchmark-seed2", bench(2), 1960, "819759070041ffec2f5daa92919506a43412e2d03f859373923b3b451fe43c9c"},
		{"quick", quick, 608, "adf808af3259838ac253896c368a6f21c81c1fb2b5b1c6f12c21ee8ac709f782"},
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
