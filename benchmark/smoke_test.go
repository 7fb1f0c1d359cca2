package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is BENCHMARK.json as the acceptance driver reads it.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryWorkloadEmitsTheDeclaredMetrics runs each workload at smoke
// scale, untraced and traced, and holds the emitted names and units to
// BENCHMARK.json. A run is also only correct when every pass — and, in
// the traced run, the decorated pass — reproduces pass 0's final states.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared, limits are 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, d.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		for _, mode := range []struct {
			trace bool
			want  []declaredMetric
		}{{false, d.EndToEnd}, {true, d.PerLayer}} {
			res, info, err := run(options{workload: w.name, seed: 1, seconds: 1, trace: mode.trace,
				scale: "smoke", dataRoot: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, mode.trace, res.Correct, res.Attempted, res.Failed, info.Problems)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is not of the permitted form", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				case !mode.trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestDecoratorsKeepTheFinalStateAndSpansReconcile runs two op-sets
// plain and decorated: the dumps must be byte-identical, and on the
// single-goroutine workloads the self times of all spans on the
// blocking path must add up to the root spans exactly.
func TestDecoratorsKeepTheFinalStateAndSpansReconcile(t *testing.T) {
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serial_dense", "serial_sparse_durable", "coop_dense"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := setup(sc, w, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := w.pass(e, 2, variant{oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		decorated, err := w.pass(e, 2, variant{tr: tr, oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.failed+decorated.failed != 0 {
			t.Errorf("%s: problems %v %v", name, plain.problems, decorated.problems)
		}
		if len(plain.dumps) < 2 || len(plain.dumps) != len(decorated.dumps) || !plain.sameDumps(decorated) {
			t.Errorf("%s: decorated pass dumps differently from the plain one", name)
		}
		sum := tr.summarize()
		var self int64
		for _, ns := range sum.selfNS {
			self += ns
		}
		if len(tr.spans) == 0 || self != sum.rootNS {
			t.Errorf("%s: %d spans, self times sum to %d ns, root spans to %d ns", name, len(tr.spans), self, sum.rootNS)
		}
	}
}
