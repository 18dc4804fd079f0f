package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/exp"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// The stream workload replays a long trace from a file in bounded memory.
// Set-up generates cc1 at streamScale for both targets and writes each as a
// VLT2 file (gen + encode). The timed phase replays each file:
// decode → annotate (Simple) → 620 for PPC, and the same into the 21164
// for AXP. Each leg is one operation (a cell); a "job" is one replay of
// both files. Nothing here goes through exp's caches or pool, serve or
// dist; there is no result cache, so a hit job (a replay whose cells were
// already computed earlier in the run) costs the same as the first: this is
// the workload that bypasses every cache.
//
// The input is fixed: cc1 at one scale. Per-record simulation cost differs
// by up to 1.8× between benchmarks, so a seed-chosen benchmark or length
// would swing every figure between seeds by more than any bound. The seed
// orders the set-up and the legs.

const streamBench = "cc1"

// streamScale makes cc1 about 3.2 M records per target.
const streamScale = 24

// streamFile is one written trace file.
type streamFile struct {
	target  prog.Target
	path    string
	records int64
	bytes   int64
}

// streamClock accumulates per-layer self time when a run is traced; a nil
// clock times nothing.
type streamClock struct {
	gen, encode, decode, annotate, sim620, sim21164 time.Duration
	// written counts set-up records, loads the loads annotated, and
	// recs620/recs21164 the records each model simulated.
	written, loads, recs620, recs21164 int64
}

func runStream(o options) (*outcome, error) {
	scale := streamScale
	if o.tiny {
		scale = 1
	}
	cfg := lvp.Simple
	out := &outcome{}
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed_57e4))
	targets := []prog.Target{prog.PPC, prog.AXP}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		for _, tg := range targets {
			os.Remove(streamPath(o, tg))
		}
	}()

	// Set-up, several times: the median is setup_s. Traced runs alternate
	// untraced and traced set-ups.
	var setups, tracedSetups []float64
	var setupClock streamClock
	var files []streamFile
	for k := 0; k < 3 || (o.trace && k < 4); k++ {
		var clk *streamClock
		if o.trace && k%2 == 1 {
			clk = &setupClock
		}
		start := time.Now()
		fs, err := writeStreamFiles(o, targets, scale, clk)
		if err != nil {
			return nil, err
		}
		if clk != nil {
			tracedSetups = append(tracedSetups, secs(time.Since(start)))
		} else {
			setups = append(setups, secs(time.Since(start)))
		}
		files = fs
	}

	// Timed phase: replay both files until the budget is spent.
	var (
		replays, tracedReplays []float64
		legTime                time.Duration
		legRecords             int64
		replayClock            streamClock
		first                  = map[string][]byte{}
	)
	begin := time.Now()
	for len(replays) < 2 || (o.trace && len(tracedReplays) == 0) || time.Since(begin) < o.budget() {
		var clk *streamClock
		if o.trace && len(tracedReplays) < len(replays) {
			clk = &replayClock
		}
		start := time.Now()
		for _, f := range files {
			t := time.Now()
			st, recs, err := replayLeg(f, cfg, clk)
			d := time.Since(t)
			out.attempted++
			if err != nil {
				o.fail(out, "stream %s leg: %v", f.target.Name, err)
				continue
			}
			if recs != f.records {
				o.fail(out, "stream %s leg decoded %d records, wrote %d", f.target.Name, recs, f.records)
			}
			prev, seen := first[f.target.Name]
			if !seen {
				first[f.target.Name] = st
			} else if !bytes.Equal(prev, st) {
				o.fail(out, "stream %s leg stats differ from the first replay", f.target.Name)
			}
			if clk == nil {
				legTime += d
				legRecords += recs
			}
		}
		wall := secs(time.Since(start))
		if clk != nil {
			tracedReplays = append(tracedReplays, wall)
		} else {
			replays = append(replays, wall)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Untimed check: each leg's stats equal the in-memory suite's result
	// for the same cell.
	for _, f := range files {
		want, err := suiteStats(f.target, scale, cfg)
		if err != nil {
			return nil, err
		}
		settle()
		out.attempted++
		if got := first[f.target.Name]; !bytes.Equal(got, want) {
			o.fail(out, "stream %s leg stats differ from exp.Suite:\n#   stream %s\n#   suite  %s", f.target.Name, got, want)
		}
	}

	var recs, size int64
	for _, f := range files {
		recs += f.records
		size += f.bytes
	}
	fmt.Fprintf(o.info, "# stream: %s ×%d, %d records over %d file(s), %.2f B/record; %d set-ups, %d replays (%d traced)\n",
		streamBench, scale, recs, len(files), float64(size)/float64(recs), len(setups)+len(tracedSetups), len(replays)+len(tracedReplays), len(tracedReplays))
	if !o.trace {
		out.values = map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         median(replays),
			"minst_per_s":    float64(legRecords) / legTime.Seconds() / 1e6,
			"peak_rss_mb":    rss,
			"job_p50_ms":     1000 * median(replays),
			"job_p90_ms":     1000 * percentile(replays, 0.9),
			"hit_job_p50_ms": 1000 * median(replays[1:]),
			"jobs_per_s":     float64(len(replays)) / sum(replays),
		}
		return out, nil
	}

	ns, nr := float64(len(tracedSetups)), float64(len(tracedReplays))
	v := newLayerValues()
	c, r := setupClock, replayClock
	v["vm.busy_s"] = secs(c.gen) / ns
	v["vm.ns_per_record"] = ratio(float64(c.gen), float64(c.written))
	v["trace.busy_s"] = secs(c.encode)/ns + secs(r.decode)/nr
	v["trace.ns_per_record"] = ratio(float64(r.decode), float64(r.recs620+r.recs21164))
	v["trace.bytes_per_record"] = float64(size) / float64(recs)
	v["trace.encode_ns_per_record"] = ratio(float64(c.encode), float64(c.written))
	v["lvp.busy_s"] = secs(r.annotate) / nr
	v["lvp.ns_per_load"] = ratio(float64(r.annotate), float64(r.loads))
	v["ppc620.busy_s"] = secs(r.sim620) / nr
	v["ppc620.ns_per_record"] = ratio(float64(r.sim620), float64(r.recs620))
	v["axp21164.busy_s"] = secs(r.sim21164) / nr
	v["axp21164.ns_per_record"] = ratio(float64(r.sim21164), float64(r.recs21164))
	reconcile(o, v, 1, mean(setups)+mean(replays), mean(tracedSetups)+mean(tracedReplays))
	out.values = v
	return out, nil
}

func streamPath(o options, tg prog.Target) string {
	return filepath.Join(o.workDir, fmt.Sprintf("stream-%s-%s.vlt2", streamBench, tg.Name))
}

// writeStreamFiles generates the stream benchmark for each target and
// writes it as a VLT2 file.
func writeStreamFiles(o options, targets []prog.Target, scale int, clk *streamClock) ([]streamFile, error) {
	var files []streamFile
	for _, tg := range targets {
		f, err := writeStreamFile(streamPath(o, tg), tg, scale, clk)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func writeStreamFile(path string, tg prog.Target, scale int, clk *streamClock) (streamFile, error) {
	sf := streamFile{target: tg, path: path}
	t := time.Now()
	bm, err := bench.ByName(streamBench)
	if err != nil {
		return sf, err
	}
	p, err := bm.Build(tg, scale)
	if err != nil {
		return sf, err
	}
	src := vm.NewSource(p, maxSteps())
	if clk != nil {
		clk.gen += time.Since(t)
	}
	f, err := os.Create(path)
	if err != nil {
		return sf, err
	}
	defer f.Close()
	w, err := trace.NewWriter2Opts(f, bm.Name, tg.Name, trace.Writer2Options{})
	if err != nil {
		return sf, err
	}
	buf := make([]trace.Record, 1024)
	for {
		if clk != nil {
			t = time.Now()
		}
		n, rerr := src.NextBatch(buf)
		if clk != nil {
			t2 := time.Now()
			clk.gen += t2.Sub(t)
			t = t2
		}
		for i := range n {
			if err := w.WriteRecord(&buf[i]); err != nil {
				return sf, err
			}
		}
		if clk != nil {
			clk.encode += time.Since(t)
		}
		sf.records += int64(n)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return sf, fmt.Errorf("generating %s/%s: %w", streamBench, tg.Name, rerr)
		}
	}
	if clk != nil {
		t = time.Now()
	}
	if err := w.Close(); err != nil {
		return sf, err
	}
	if clk != nil {
		clk.encode += time.Since(t)
		clk.written += sf.records
	}
	st, err := f.Stat()
	if err != nil {
		return sf, err
	}
	sf.bytes = st.Size()
	return sf, f.Close()
}

// replayLeg streams one file through the LVP unit into its machine model
// and returns the model's stats as JSON and the number of records decoded.
func replayLeg(sf streamFile, cfg lvp.Config, clk *streamClock) (stats []byte, records int64, err error) {
	var pipeTime time.Duration
	t := time.Now()
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	d, err := trace.OpenFile(f)
	if err != nil {
		return nil, 0, err
	}
	if c, ok := d.(io.Closer); ok {
		defer c.Close()
	}
	open := time.Since(t)
	decode := open

	var src trace.Source = d
	if clk != nil {
		src = &timedSource{src: d, clock: &decode}
	}
	pipe, err := lvp.NewPipe(src, cfg, nil)
	if err != nil {
		return nil, 0, err
	}
	var asrc trace.AnnotatedSource = pipe
	if clk != nil {
		asrc = &timedAnnotated{src: pipe, clock: &pipeTime}
	}

	t = time.Now()
	var st any
	switch sf.target.Name {
	case prog.PPC.Name:
		st, err = ppc620.SimulateSource(asrc, ppc620.Config620(), cfg.Name)
	case prog.AXP.Name:
		st, err = axp21164.SimulateSource(asrc, axp21164.Config21164(), cfg.Name)
	default:
		err = fmt.Errorf("no machine model for target %s", sf.target.Name)
	}
	total := time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	records = int64(d.Decoded())
	if clk != nil {
		// Self times: each stage's span minus its upstream stage's.
		clk.decode += decode
		clk.annotate += pipeTime - (decode - open)
		clk.loads += int64(pipe.Stats().Loads)
		if sf.target.Name == prog.PPC.Name {
			clk.sim620 += total - pipeTime
			clk.recs620 += records
		} else {
			clk.sim21164 += total - pipeTime
			clk.recs21164 += records
		}
	}
	stats, err = json.Marshal(st)
	return stats, records, err
}

// timedSource wraps the decoder, adding the time spent in each pull to
// clock; it keeps the batch capability the annotator uses.
type timedSource struct {
	src   trace.BatchSource
	clock *time.Duration
}

func (s *timedSource) Next() (*trace.Record, error) {
	t := time.Now()
	r, err := s.src.Next()
	*s.clock += time.Since(t)
	return r, err
}

func (s *timedSource) NextBatch(buf []trace.Record) (int, error) {
	t := time.Now()
	n, err := s.src.NextBatch(buf)
	*s.clock += time.Since(t)
	return n, err
}

// timedAnnotated wraps the annotating pipe the same way, keeping its batch
// capability for the machine model's slab reader.
type timedAnnotated struct {
	src   trace.AnnotatedBatchSource
	clock *time.Duration
}

func (s *timedAnnotated) Next() (*trace.Record, trace.PredState, error) {
	t := time.Now()
	r, st, err := s.src.Next()
	*s.clock += time.Since(t)
	return r, st, err
}

func (s *timedAnnotated) NextBatch(recs []trace.Record, states []trace.PredState) (int, error) {
	t := time.Now()
	n, err := s.src.NextBatch(recs, states)
	*s.clock += time.Since(t)
	return n, err
}

func (s *timedAnnotated) Annotated() bool { return s.src.Annotated() }

// suiteStats computes the same cell on an in-memory exp.Suite and returns
// its stats as JSON.
func suiteStats(tg prog.Target, scale int, cfg lvp.Config) ([]byte, error) {
	s := exp.NewSuiteParallel(scale, 1)
	var st any
	var err error
	switch tg.Name {
	case prog.PPC.Name:
		st, err = s.Sim620(streamBench, false, &cfg)
	case prog.AXP.Name:
		st, err = s.Sim21164(streamBench, &cfg)
	default:
		err = errors.New("unknown target " + tg.Name)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// maxSteps is the engine's functional-execution bound, so the streamed
// cell and the suite's cell execute the same program prefix.
func maxSteps() int { return exp.NewSuiteParallel(1, 1).MaxSteps }
