package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when the paper
// workload times process start-up by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		probe()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: code reports %s (%s), BENCHMARK.json lists %s (%s)",
					c.kind, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		trace:    trace,
		tiny:     true,
		workDir:  t.TempDir(),
		workers:  2,
		info:     &strings.Builder{},
	}
}

// TestWorkloadsTiny runs every workload at tiny sizes, untraced and
// traced: each must pass its correctness checks and report every metric of
// its mode with its unit, and every end-to-end metric must be positive.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, name, trace)
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, o.info)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace && !strings.Contains(o.info.String(), "# reconciliation") {
				t.Errorf("%s: traced run printed no reconciliation:\n%s", name, o.info)
			}
		}
	}
}

// TestPerturbedDigestFails proves the paper check can fail: with one
// recorded digest changed, every run of that experiment is a failed
// operation and the run is not correct.
func TestPerturbedDigestFails(t *testing.T) {
	saved := paperDigests["table2"]
	paperDigests["table2"] = strings.Repeat("0", len(saved))
	defer func() { paperDigests["table2"] = saved }()

	o := tinyOptions(t, "paper", false)
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed digest passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(o.info.String(), "output of table2") {
		t.Errorf("failure does not name the experiment:\n%s", o.info)
	}
}
