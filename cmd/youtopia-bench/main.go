// Command youtopia-bench reproduces the paper's evaluation (§6,
// Figures 3 and 4): the NAIVE / COARSE / PRECISE cascading-abort
// algorithms compared on synthetic workloads while the number of
// mappings sweeps from sparse to dense. Each figure prints three
// panels — total aborts, cascading abort requests, and the per-update
// execution-time slowdown of PRECISE over COARSE.
//
// Beyond the paper's figures, -figure parallel compares the serial
// reference execution against the concurrency-controlled scheduler
// across a sweep of round widths (-workers), and -figure inbox compares
// busy-repoll answering with parking in the decision inbox. Both report
// counts (aborts, commit batches, WAL syncs, user polls, inbox entries)
// and walls; with -data-dir the runs execute against a write-ahead-
// logged store, and with -baseline every count must match the
// committed baseline exactly. The walls are never gated.
//
// Usage:
//
//	youtopia-bench -figure both -preset paper -runs 3
//	youtopia-bench -figure parallel -preset quick -workers 0,2,4
//	youtopia-bench -figure parallel -preset quick -data-dir /tmp/ybench
//	youtopia-bench -figure inbox -preset quick -baseline bench/BENCH_baseline_inbox.json
//
// Observability riders work with every figure: -debug-addr serves
// /metrics (Prometheus text), /healthz, /debug/vars and /debug/pprof
// while the study runs and self-scrapes /metrics once at the end (the
// CI smoke check); -metrics prints a final registry snapshot table;
// -cpuprofile writes a CPU profile; -trace-out records per-update
// lifecycle span timelines as JSON.
//
// Presets:
//
//	quick     small universe, seconds (CI smoke runs)
//	moderate  paper structure at reduced data scale, ~1 minute
//	paper     the full §6 parameters: 100 relations, 50 constants,
//	          100 mappings, 10000 initial tuples, 500 updates
//
// Individual parameters can be overridden with flags after -preset.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"youtopia/internal/debugserver"
	"youtopia/internal/experiments"
	"youtopia/internal/obs"
	"youtopia/internal/workload"
)

func main() {
	figure := flag.String("figure", "both", "which figure to reproduce: 3, 4, both, latency (the §5.2 user-latency extension study), parallel (serial reference vs the scheduler's round widths), or inbox (busy-repoll vs decision-inbox park/answer/resume)")
	inboxWorkers := flag.Int("inbox-workers", 4, "worker count the -figure inbox study runs both modes on (at least 1)")
	workersFlag := flag.String("workers", "", "comma-separated round widths for -figure parallel (0 = serial reference; default 0,1,2,4,8)")
	dataDir := flag.String("data-dir", "", "back each -figure parallel or inbox run with a write-ahead log under this directory; empty = in-memory, the unchanged default")
	jsonPath := flag.String("json", "", "write the -figure parallel or inbox study as JSON to this file (the CI bench artifact)")
	baseline := flag.String("baseline", "", "gate the -figure parallel or inbox study against this committed JSON baseline: exit nonzero unless every count matches exactly")
	preset := flag.String("preset", "moderate", "parameter preset: quick, moderate or paper")
	runs := flag.Int("runs", 3, "runs averaged per data point (paper: 100)")
	seed := flag.Int64("seed", 1, "master random seed")
	sweepFlag := flag.String("sweep", "", "comma-separated mapping counts (default per preset)")
	trackers := flag.String("trackers", "NAIVE,COARSE,PRECISE", "trackers to compare")
	naivePoints := flag.Int("naive-points", 2, "sweep points NAIVE runs (it degenerates; 0 = all)")
	csvPath := flag.String("csv", "", "also write all data points to this CSV file")
	relations := flag.Int("relations", 0, "override: number of relations")
	initial := flag.Int("initial", 0, "override: initial database seed tuples")
	updates := flag.Int("updates", 0, "override: workload length")
	quiet := flag.Bool("quiet", false, "suppress per-point progress output")
	metricsFlag := flag.Bool("metrics", false, "print a final snapshot of the process metrics registry after the study")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address during the study; /metrics is self-scraped once at the end as a smoke check")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the study to this file")
	traceOut := flag.String("trace-out", "", "record per-update lifecycle spans during the study and write the timelines to this JSON file")
	flag.Parse()
	if *inboxWorkers < 1 {
		// Workers 0 is the serial reference execution, which cannot park
		// an update in the inbox.
		fail(fmt.Errorf("bad -inbox-workers %d: the inbox study needs at least 1 worker", *inboxWorkers))
	}

	// Observability riders around whichever study runs below. They are
	// torn down by defers because every -figure branch returns from
	// main directly; LIFO order prints the metrics table before the
	// debug server is scraped and shut down.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "youtopia-bench:", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuProfile)
		}()
	}
	if *debugAddr != "" {
		srv, err := debugserver.Serve(*debugAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", srv.Addr)
		defer func() {
			scrapeSelf(srv.Addr)
			srv.Close()
		}()
	}
	if *traceOut != "" {
		tr := obs.NewTracer()
		experiments.SetTrace(tr)
		defer func() {
			if err := tr.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "youtopia-bench: writing trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
		}()
	}
	if *metricsFlag {
		defer func() {
			fmt.Println()
			fmt.Println("== process metrics")
			fmt.Print(obs.RenderTable(obs.Default.Snapshot()))
		}()
	}

	base, sweep, err := configFor(*preset)
	if err != nil {
		fail(err)
	}
	base.Seed = *seed
	if *relations > 0 {
		base.Relations = *relations
	}
	if *initial > 0 {
		base.InitialTuples = *initial
	}
	if *updates > 0 {
		base.Updates = *updates
	}
	if *sweepFlag != "" {
		sweep, err = parseInts(*sweepFlag, 1)
		if err != nil {
			fail(fmt.Errorf("bad -sweep: %w", err))
		}
	}
	if *figure == "parallel" {
		var workers []int
		if *workersFlag != "" {
			if workers, err = parseInts(*workersFlag, 0); err != nil {
				fail(fmt.Errorf("bad -workers: %w", err))
			}
		}
		points, err := experiments.ParallelStudy(base, workers, *runs, *dataDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderParallel(points))
		report(points, experiments.ParallelCSV(points), *csvPath, *jsonPath, *baseline)
		return
	}
	if *figure == "inbox" {
		points, err := experiments.InboxStudy(base, *inboxWorkers, *runs, *dataDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderInbox(points))
		report(points, experiments.InboxCSV(points), *csvPath, *jsonPath, *baseline)
		return
	}
	if *figure == "latency" {
		points, err := experiments.LatencyStudy(base, nil, *runs)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderLatency(points))
		return
	}
	opts := experiments.Options{
		Sweep:       sweep,
		Trackers:    strings.Split(*trackers, ","),
		Runs:        *runs,
		NaivePoints: *naivePoints,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	var figures []*experiments.Figure
	if *figure == "3" || *figure == "both" {
		fig, err := experiments.Figure3(base, opts)
		if err != nil {
			fail(err)
		}
		figures = append(figures, fig)
	}
	if *figure == "4" || *figure == "both" {
		fig, err := experiments.Figure4(base, opts)
		if err != nil {
			fail(err)
		}
		figures = append(figures, fig)
	}
	if len(figures) == 0 {
		fail(fmt.Errorf("unknown -figure %q (want 3, 4, both, latency, parallel or inbox)", *figure))
	}

	var csv strings.Builder
	for i, fig := range figures {
		if i > 0 {
			fmt.Println()
		}
		fmt.Println(fig.Render())
		if *csvPath != "" {
			out := fig.CSV()
			if i > 0 {
				// Drop the duplicate header.
				if idx := strings.IndexByte(out, '\n'); idx >= 0 {
					out = out[idx+1:]
				}
			}
			csv.WriteString(out)
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// report writes a study's CSV and JSON files when asked, and gates its
// counts against the committed baseline exactly.
func report[P experiments.StudyPoint](points []P, csv, csvPath, jsonPath, baseline string) {
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", csvPath)
	}
	if jsonPath != "" {
		if err := experiments.WriteStudy(jsonPath, points); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	if baseline != "" {
		base, err := experiments.LoadStudy[P](baseline)
		if err != nil {
			fail(err)
		}
		if err := experiments.CheckCounts(points, base); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "counts match %s exactly\n", baseline)
	}
}

func configFor(preset string) (workload.Config, []int, error) {
	switch preset {
	case "quick":
		cfg := workload.Quick()
		return cfg, []int{8, 16, 24}, nil
	case "moderate":
		cfg := workload.Default()
		cfg.InitialTuples = 3000
		cfg.Updates = 150
		return cfg, experiments.DefaultSweep, nil
	case "paper":
		return workload.Default(), experiments.DefaultSweep, nil
	default:
		return workload.Config{}, nil, fmt.Errorf("unknown preset %q (want quick, moderate or paper)", preset)
	}
}

// parseInts parses a comma-separated integer list, rejecting entries
// below min.
func parseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// scrapeSelf fetches the bench's own /metrics endpoint over real HTTP
// — the CI smoke check that the debug server serves a well-formed
// Prometheus exposition after a study.
func scrapeSelf(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-bench: self-scrape:", err)
		os.Exit(1)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-bench: self-scrape:", err)
		os.Exit(1)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# TYPE") {
		fmt.Fprintf(os.Stderr, "youtopia-bench: self-scrape: status %d, %d bytes, no # TYPE line\n", resp.StatusCode, len(body))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "self-scraped /metrics: %d bytes ok\n", len(body))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "youtopia-bench:", err)
	os.Exit(1)
}
