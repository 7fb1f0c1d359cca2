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
		{"benchmark-seed1", bench(1), 2039, "6fad3546e828aab798668630c6386ea6289bf988e1724860f4db18bab97aa9e6"},
		{"benchmark-seed2", bench(2), 1960, "987efd632d5e2b8bd7bc5d3afaa5b5f4f9aeaeb972969193fc9e75ce7db4e5b8"},
		{"quick", quick, 608, "ba13bd9d5d950b79582dc07c084e602442c3be7e0444a982960310a5ba653063"},
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
