package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// benchmarkFile is the slice of BENCHMARK.json the agreement protocol
// reads: each end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// ungated are the times a --trace 0 run carries in its info line only;
// the protocol prints their agreement too, against the ceiling a bound
// may have, to show why they are not gated.
var ungated = []struct {
	name, better string
}{{"updates_per_s", "higher"}, {"cpu_us_per_update", "lower"}}

// agreement runs the acceptance protocol on the code as it stands: two
// sets of k runs per workload, every run a fresh process with its own
// seed, workloads alternating so that drift in the machine lands on all
// of them. For every end-to-end metric it prints both set medians,
// each set's spread (interquartile range over median, by Python's
// statistics.quantiles), how much worse the second median is than the
// first, and the bound. A benchmark is steady when every spread and
// every gap sits inside the bound.
func agreement(k int, o options) error {
	// The repository root is the working directory under run.sh and the
	// parent directory under `go run -C benchmark`.
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
			return err
		}
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] are the k values of one set.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < k; i++ {
			for _, w := range workloads {
				seed := int64(set*k + i + 1)
				res, info, err := runChild(self, w.name, seed, o)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], v.Value)
				}
				for _, m := range ungated {
					values[set][w.name][m.name] = append(values[set][w.name][m.name], median(info.PassValues[m.name]))
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d done\n", set+1, i+1, w.name, seed)
			}
		}
	}
	row := func(w, name, better string, bound float64) {
		a, b := values[0][w][name], values[1][w][name]
		ma, mb := median(a), median(b)
		worse := (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
		ok := worse <= bound && (name == "setup_s" || (spreadShare(a) <= bound && spreadShare(b) <= bound))
		fmt.Printf("| %s | %s | %.6g | %.4f | %.6g | %.4f | %+.4f | %.2f | %v |\n",
			w, name, ma, spreadShare(a), mb, spreadShare(b), worse, bound, ok)
	}
	const header = "| workload | metric | set 1 median | set 1 spread | set 2 median | set 2 spread | set 2 worse by | bound | within |\n|---|---|---|---|---|---|---|---|---|\n"
	fmt.Print("Gated:\n\n", header)
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			row(w.name, m.Name, m.Better, m.Bound)
		}
	}
	fmt.Print("\nReported, against the largest bound the contract allows:\n\n", header)
	for _, w := range workloads {
		for _, m := range ungated {
			row(w.name, m.name, m.better, 0.25)
		}
	}
	return nil
}

// runChild runs one benchmark run as its own process, the way the
// acceptance driver does, and parses the result off its last line.
func runChild(self, workload string, seed int64, o options) (result, runInfo, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-scale", o.scale, "-data", o.dataRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, runInfo{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 2 {
		return result{}, runInfo{}, fmt.Errorf("%d lines of output, want the info line and the result", len(lines))
	}
	var res result
	var info runInfo
	if err := errors.Join(json.Unmarshal(lines[0], &info), json.Unmarshal(lines[1], &res)); err != nil {
		return result{}, runInfo{}, fmt.Errorf("parsing output %q: %w", out, err)
	}
	if !res.Correct {
		return res, info, fmt.Errorf("run reported incorrect outputs")
	}
	return res, info, nil
}
