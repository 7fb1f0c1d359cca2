package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The round-width and inbox studies are gated on what their runs
// repeat. A scheduler run is a function of its workload, configuration
// and seeded user, and the inbox study's questions are answered on the
// inbox's own clock, so every count a point reports comes out the same
// on every run and every machine; a committed baseline pins them
// exactly. Wall times, throughput and resume percentiles are reported
// beside the counts and never gated: runs of a few milliseconds spread
// too widely for a ratio of them to say anything.

// Count is one count of a study point, named as its JSON field.
type Count struct {
	Name  string
	Value float64
}

// StudyPoint is a point of a gated study: Label keys it to the
// baseline's point of the same mode, and Counts lists what its runs
// repeat.
type StudyPoint interface {
	Label() string
	Counts() []Count
}

// CheckCounts compares a fresh study with its committed baseline. It
// returns an error naming every point and count that differ, and every
// point only one side has.
func CheckCounts[P StudyPoint](current, baseline []P) error {
	byLabel := make(map[string]P, len(current))
	for _, p := range current {
		byLabel[p.Label()] = p
	}
	var failures []string
	for _, bp := range baseline {
		cp, ok := byLabel[bp.Label()]
		if !ok {
			failures = append(failures, bp.Label()+": in the baseline, not in the study")
			continue
		}
		delete(byLabel, bp.Label())
		got := cp.Counts()
		for i, want := range bp.Counts() {
			if got[i].Value != want.Value {
				failures = append(failures, fmt.Sprintf("%s: %s %v, baseline %v",
					bp.Label(), want.Name, got[i].Value, want.Value))
			}
		}
	}
	for _, p := range current {
		if _, ok := byLabel[p.Label()]; ok {
			failures = append(failures, p.Label()+": in the study, not in the baseline")
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("experiments: counts differ from the baseline:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// WriteStudy writes a study's points to path as indented JSON: the
// BENCH_*.json artifacts CI uploads and gates.
func WriteStudy[P StudyPoint](path string, points []P) error {
	data, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadStudy reads a study WriteStudy wrote.
func LoadStudy[P StudyPoint](path string) ([]P, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var points []P
	if err := json.Unmarshal(data, &points); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	return points, nil
}
