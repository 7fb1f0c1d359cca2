// Command benchmark is the repository's one repeatable benchmark: four
// workloads over the paper's §6 generator, end-to-end metrics measured
// on the program's real entry points with nothing decorated, and a
// per-layer budget read off one extra pass that runs through decorators
// written here around interfaces the program already exposes. See
// README.md for the workloads, the estimator and the predictions.
//
//	go run -C benchmark . -workload serial_dense -seed 1
//	go run -C benchmark . -workload coop_dense -seed 2 -trace 1 -spans spans.json
//	go run -C benchmark . -agree 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	spans    string
	dataRoot string
}

// metricValue and result are the benchmark's output contract: the last
// line of standard output is one result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is printed on the line before the result: where the numbers
// came from and how far the passes of this run spread.
type runInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Universe   int64     `json:"universe_seed"`
	Scale      string    `json:"scale"`
	Passes     int       `json:"passes"`
	Opsets     int       `json:"opsets_per_pass"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	DataFS     string    `json:"data_dir_fs_type"`
	Tuples     int       `json:"initial_tuples"`
	SetupS     []float64 `json:"setup_s"`
	// PassValues are the end-to-end figures of every pass, PassSpread
	// their interquartile range as a share of their median.
	PassValues map[string][]float64 `json:"pass_values"`
	PassSpread map[string]float64   `json:"pass_spread_share"`
	Problems   []string             `json:"problems,omitempty"`
}

func main() {
	var o options
	var trace, agree int
	flag.StringVar(&o.workload, "workload", "serial_dense", "serial_dense, serial_sparse_durable, coop_dense or parallel_sparse")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the update streams and the curator's decisions (2 is the held-out seed, on a universe of its own)")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured passes should take on the reference machine")
	flag.IntVar(&trace, "trace", 0, "1: after the measured passes run op-set 0 through the decorators and report the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full or smoke")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the traced pass's spans to this file as JSON")
	flag.StringVar(&o.dataRoot, "data", filepath.Join(".bench_build", "data"), "directory the durable workload's data directories are created in")
	flag.IntVar(&agree, "agree", 0, "run the agreement protocol with this many runs per set and print its table")
	flag.Parse()
	o.trace = trace != 0

	if agree > 0 {
		if err := agreement(agree, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(info), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: set-up, the identical measured passes,
// the traced pass when asked for, and the reduction to metrics.
func run(o options) (result, runInfo, error) {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return result{}, runInfo{}, err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, runInfo{}, err
	}
	dataRoot := filepath.Join(o.dataRoot, fmt.Sprintf("%d", os.Getpid()))
	if w.durable {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return result{}, runInfo{}, err
		}
		defer os.RemoveAll(dataRoot)
	}
	info := runInfo{
		Workload: w.name, Seed: o.seed, Universe: universeSeed(o.seed), Scale: o.scale,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		DataFS: fsType(dataRoot),
	}

	// --seconds fixes how many op-sets a pass holds, through the
	// workload's calibrated time per op-set: a run's work depends on its
	// arguments only, never on how fast the program is.
	groups := o.seconds / (float64(sc.passes) * w.opsetSeconds)
	info.Passes, info.Opsets = sc.passes, max(int(groups+0.5), 1)

	// A set-up precedes every pass and setup_s is their mean, so that work
	// a later change moves out of the passes and into set-up shows. Every
	// pass runs on the first set-up's universe: the later ones are only
	// timed, and a pass keeps the plan caches the one before it filled.
	var e *env
	passes := make([]*pass, 0, sc.passes)
	for p := 0; p < sc.passes; p++ {
		t := time.Now()
		fresh, err := setup(sc, w, o.seed, dataRoot)
		if err != nil {
			return result{}, info, fmt.Errorf("set-up: %w", err)
		}
		info.SetupS = append(info.SetupS, time.Since(t).Seconds())
		if e == nil {
			e = fresh
			info.Tuples = len(e.u.Initial)
		}
		ps, err := w.pass(e, info.Opsets, variant{oracle: p == 0})
		if err != nil {
			return result{}, info, fmt.Errorf("pass %d: %w", p, err)
		}
		if p > 0 && !ps.sameDumps(passes[0]) {
			ps.problem("pass %d ended in another state than pass 0", p)
		}
		passes = append(passes, ps)
	}

	res := result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	specs := endToEnd
	checked := passes
	if !o.trace {
		values = endToEndMetrics(passes, mean(info.SetupS))
	} else {
		t, extra, err := tracedPasses(e, w, o.spans)
		if err != nil {
			return result{}, info, err
		}
		// The decorators must not change what the program computes.
		if !t.pass.sameDumps(passes[0]) {
			t.pass.problem("the traced pass ended op-set 0 in another state than pass 0")
		}
		checked = append(checked, extra...)
		values, specs = perLayerMetrics(passes, t), perLayer
	}
	info.PassValues, info.PassSpread = map[string][]float64{}, map[string]float64{}
	for name, f := range perPass {
		info.PassValues[name] = overPasses(passes, f)
		info.PassSpread[name] = spreadShare(info.PassValues[name])
	}
	for _, ps := range checked {
		res.Attempted += ps.updates
		res.Failed += ps.failed
		info.Problems = append(info.Problems, ps.problems...)
	}
	res.Correct = res.Failed == 0
	values["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	return res, info, nil
}

// tracedPasses runs op-set 0 through the decorators, plus the variants
// of the same op-set the per-layer metrics compare it with. Every one is
// held to the serial oracle.
func tracedPasses(e *env, w workloadDef, spansPath string) (traced, []*pass, error) {
	t := traced{workers: 1}
	var extra []*pass
	add := func(v variant) (*pass, error) {
		v.oracle = true
		ps, err := w.pass(e, 1, v)
		if err == nil {
			extra = append(extra, ps)
		}
		return ps, err
	}
	var err error
	if t.real, err = add(variant{}); err != nil {
		return t, nil, err
	}
	t.base = t.real
	switch w.name {
	case "serial_dense", "serial_sparse_durable":
		if t.base, err = add(variant{bare: true}); err != nil {
			return t, nil, err
		}
	case "coop_dense":
		tr := newTracer()
		if t.precise, err = add(variant{tr: tr, precise: true}); err != nil {
			return t, nil, err
		}
		t.preciseSum = tr.summarize()
	case "parallel_sparse":
		t.workers = 2
		if t.workers1, err = add(variant{workers: 1}); err != nil {
			return t, nil, err
		}
	}
	tr := newTracer()
	if t.pass, err = add(variant{tr: tr}); err != nil {
		return t, nil, err
	}
	t.sum = tr.summarize()
	set := e.dense
	if w.name == "serial_sparse_durable" || w.name == "parallel_sparse" {
		set = e.sparse
	}
	t.probeNS = probeViolations(t.pass.final, set, t.pass.ops, e.sc.probes)
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return t, nil, err
		}
	}
	return t, extra, nil
}

// fsType names the filesystem holding dir (or its nearest existing
// ancestor) by its statfs magic number.
func fsType(dir string) string {
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			return fmt.Sprintf("0x%x", st.Type)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
