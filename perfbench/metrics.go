package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lvp/internal/exp"
)

// metricDef names one reported metric and its unit. The two lists mirror
// BENCHMARK.json; the self-test keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"hit_job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"vm.busy_s", "s"},
	{"vm.ns_per_record", "ns"},
	{"trace.busy_s", "s"},
	{"trace.ns_per_record", "ns"},
	{"trace.bytes_per_record", "B"},
	{"trace.encode_ns_per_record", "ns"},
	{"lvp.busy_s", "s"},
	{"lvp.ns_per_load", "ns"},
	{"lvp.zoo_busy_s", "s"},
	{"ppc620.busy_s", "s"},
	{"ppc620.ns_per_record", "ns"},
	{"axp21164.busy_s", "s"},
	{"axp21164.ns_per_record", "ns"},
	{"exp.self_s", "s"},
	{"exp.cache_hit_ratio", "ratio"},
	{"exp.pool_occupancy", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.first_cell_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"dist.store_hit_ratio", "ratio"},
	{"dist.store_puts", "count"},
	{"unattributed_frac", "ratio"},
	{"obs.overhead_frac", "ratio"},
}

// layerNames are the layers whose self times the reconciliation sums, in
// report order. Each maps to the per-layer busy metric that carries it.
var layerNames = []struct{ layer, metric string }{
	{"vm", "vm.busy_s"},
	{"trace", "trace.busy_s"},
	{"lvp", "lvp.busy_s"},
	{"lvp.zoo", "lvp.zoo_busy_s"},
	{"ppc620", "ppc620.busy_s"},
	{"axp21164", "axp21164.busy_s"},
	{"exp", "exp.self_s"},
}

// newLayerValues returns a per-layer value set with every metric at zero:
// a layer the workload never calls reports no work.
func newLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// reconcile fills unattributed_frac and obs.overhead_frac and prints the
// reconciliation table. The layers' self times are busy seconds per unit of
// work; capacity is workers × the untraced wall of one unit, so the residual
// is the share of the untraced wall (on every worker) that no layer's self
// time covers: glue, waiting, idle workers, GC.
func reconcile(o options, v map[string]float64, workers int, untracedWall, tracedWall float64) {
	capacity := float64(workers) * untracedWall
	var covered float64
	fmt.Fprintf(o.info, "# reconciliation over %d worker(s) × untraced wall %.4f s:\n", workers, untracedWall)
	for _, l := range layerNames {
		s := v[l.metric]
		covered += s
		fmt.Fprintf(o.info, "#   %-9s self %9.4f s  %6.2f%%\n", l.layer, s, 100*s/capacity)
	}
	v["unattributed_frac"] = 1 - covered/capacity
	v["obs.overhead_frac"] = tracedWall/untracedWall - 1
	fmt.Fprintf(o.info, "#   unattributed %.2f%%; traced wall %.4f s, tracing overhead %+.2f%%\n",
		100*v["unattributed_frac"], tracedWall, 100*v["obs.overhead_frac"])
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle collects the previous unit's garbage before the next unit starts,
// so no unit pays for another's collection and the peak RSS does not depend
// on how many units the budget allowed.
func settle() { runtime.GC() }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// span is one timed call from the benchmark into a layer.
type span struct {
	layer string
	dur   time.Duration
	// n counts the layer's work items in the call (records, loads).
	n int64
}

// spanLog keeps spans in memory, safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(layer string, start time.Time, n int64) {
	s := span{layer: layer, dur: time.Since(start), n: n}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// totals sums span time and work per layer.
func (l *spanLog) totals() (busy map[string]time.Duration, work map[string]int64) {
	busy, work = map[string]time.Duration{}, map[string]int64{}
	for _, s := range l.spans {
		busy[s.layer] += s.dur
		work[s.layer] += s.n
	}
	return busy, work
}

// fanOut calls fn(0..n-1) from `workers` goroutines and returns once every
// call has finished, joining their errors.
func fanOut(workers, n int, fn func(i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeEnv marks a child process started only to time process start-up.
const probeEnv = "PERFBENCH_STARTUP_PROBE"

// probe is the child side of startupTimes: it gets as far as a cold suite
// and the experiment registry, then reports ready.
func probe() {
	s := exp.NewSuiteParallel(1, 0)
	fmt.Println("ready", s.Scale, len(exp.Experiments()))
}

// startupTimes starts k fresh copies of this binary and times each from
// exec to its ready line: the process start-up a user of the command line
// waits for before any experiment runs.
func startupTimes(k int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, k)
	for range k {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		if werr := cmd.Wait(); werr != nil {
			return nil, fmt.Errorf("start-up probe: %w", werr)
		}
		if rerr != nil || !strings.HasPrefix(line, "ready") {
			return nil, fmt.Errorf("start-up probe: bad ready line %q: %v", line, rerr)
		}
		out = append(out, secs(d))
	}
	return out, nil
}
