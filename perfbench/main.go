// Command perfbench is the repository benchmark: it runs one workload
// (paper, stream or serve) in a fresh process, checks the workload's
// output for correctness, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// instrumentation. With -trace 1 the run also times every layer from the
// benchmark's own calls into it and reports the per-layer set, the
// reconciliation residual and the tracing overhead. README.md in this
// directory documents the workloads and every metric.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to seconds of work, for the self-test.
	tiny bool
	// workDir holds the stream workload's trace files.
	workDir string
	// workers is the worker count of every pool the workloads drive
	// (nproc on the benchmark host).
	workers int
	// info receives the human-readable report lines printed before the
	// result.
	info *strings.Builder
}

func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	// values holds every metric of the run's mode, keyed by name.
	values map[string]float64
}

// fail counts one failed operation and reports why on the info stream.
func (o options) fail(out *outcome, format string, args ...any) {
	out.failed++
	fmt.Fprintf(o.info, "# FAIL "+format+"\n", args...)
}

var workloads = map[string]func(options) (*outcome, error){
	"paper":  runPaper,
	"stream": runStream,
	"serve":  runServe,
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its result. It fails when the
// workload cannot run at all; failed operations are reported in the result.
func run(o options) (result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want paper, stream or serve)", o.workload)
	}
	if o.workers < 1 {
		o.workers = runtime.NumCPU()
	}
	fmt.Fprintf(o.info, "# host %s\n", hostFacts())
	fmt.Fprintf(o.info, "# workload %s seed %d seconds %g trace %v workers %d\n",
		o.workload, o.seed, o.seconds, o.trace, o.workers)
	out, err := fn(o)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// hostFacts describes the machine and build a result was measured on.
func hostFacts() string {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, err := json.Marshal(facts)
	if err != nil {
		return fmt.Sprint(facts)
	}
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or "unknown" when it
// was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	if os.Getenv(probeEnv) != "" {
		probe()
		return
	}
	var (
		o     options
		seed  int64
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, stream or serve")
	flag.Int64Var(&seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "perfbench", "work"), "directory for the stream workload's trace files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	o.seed = uint64(seed)
	o.trace = trace == 1
	o.info = &strings.Builder{}

	res, err := run(o)
	fmt.Print(o.info.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
