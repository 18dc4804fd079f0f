// Package exp drives the reproduction: one driver per table and figure of
// the paper's evaluation, sharing cached traces, LVP annotations, and
// machine simulations across experiments.
//
// Machine/trace pairing follows the paper's methodology (§5): the PowerPC
// 620 and 620+ models consume PPC-target traces (the AIX/xlc side), the
// Alpha 21164 model consumes AXP-target traces (the OSF side).
//
// The evaluation is a wide fan-out — 17 benchmarks × 2 targets × 4 LVP
// configs × 3 machine models — so every driver submits its per-benchmark
// cells to a bounded worker pool (internal/par) instead of looping inline.
// Three invariants keep the parallel run byte-identical to the serial one:
//
//  1. traces, annotations and simulations live in single-flight caches, so
//     each is built exactly once no matter how many cells request it
//     concurrently;
//  2. drivers merge results into pre-sized, index-addressed slots (or
//     commutative integer accumulators), never by append-in-completion
//     order;
//  3. cross-benchmark reductions (means, geometric means) always run over
//     those slots in reporting order.
package exp

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/par"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// Cache keys. Scale is part of the trace key (per the engine contract:
// traces are memoized by benchmark, target, scale) even though it is
// currently fixed per Suite, so a future multi-scale suite cannot alias.
type traceKey struct {
	name   string
	target string
	scale  int
}

// annKey memoizes annotations by the full Config value, not just its name,
// so two ad-hoc configs that share a name can never collide.
type annKey struct {
	name   string
	target string
	scale  int
	cfg    lvp.Config
}

// sim620Key and sim164Key memoize simulation cells by benchmark, the full
// machine Config (so an ablation variant equal to a paper machine shares
// its cell) and the full LVP Config.
type sim620Key struct {
	name  string
	mc    ppc620.Config
	cfg   lvp.Config
	noLVP bool
}

type sim164Key struct {
	name  string
	mc    axp21164.Config
	cfg   lvp.Config
	noLVP bool
}

// zooKey memoizes predictor-zoo cells by benchmark and family name (a
// family name fully determines the predictor geometry).
type zooKey struct {
	name   string
	family string
	scale  int
}

// annotated pairs an annotation with the unit stats produced alongside it,
// so one cached build serves both Annotation and AnnotationStats callers.
type annotated struct {
	ann trace.Annotation
	st  lvp.Stats
}

// Suite generates and caches everything the experiments need.
type Suite struct {
	// Scale multiplies benchmark run lengths (1 = default).
	Scale int
	// MaxSteps bounds functional execution per benchmark.
	MaxSteps int
	// Workers bounds the experiment fan-out; <= 0 selects the
	// GOMAXPROCS-derived default. 1 runs serially. Output is
	// byte-identical for every value.
	Workers int
	// Stream feeds machine-simulation cells from the streaming pipeline
	// (gen → annotate → sim in one pass, bounded memory, no trace
	// materialization) instead of the cached trace and annotation. It
	// picks the source only: the cells, their cache and their telemetry
	// are the same, and so are the stats. Experiments that need a
	// materialized trace (locality, annotation tables) are unaffected.
	Stream bool
	// ZooFamilies restricts the predictor-zoo sweep to the named
	// families (lvpsim -zoo); empty selects every registered family.
	// Output stays deterministic for any selection.
	ZooFamilies []string

	// Metrics receives pipeline telemetry: per-phase build timers,
	// LVPT/LCT/CVU and machine-model counters, worker-pool occupancy.
	// NewSuite installs a fresh registry; nil disables collection (a
	// nil registry's metric handles are no-ops). Metrics never affect
	// experiment output.
	Metrics *obs.Registry
	// Tracer, when non-nil, emits structured events from every pipeline
	// layer on its enabled channels (lvpt, lct, cvu, cache, sim,
	// pipeline). Tracing never affects experiment output either — only
	// what is emitted alongside it.
	Tracer *obs.Tracer

	// ctx, when non-nil, cancels the suite's fan-outs and cache builds;
	// nil means Background. Set via WithContext so several views of one
	// suite (sharing caches) can run under different lifetimes.
	ctx context.Context

	// caches is shared by every WithContext view of the suite, so
	// traces, annotations and simulations are built once across all
	// concurrent jobs regardless of which view requested them.
	caches *suiteCaches
}

// suiteCaches is the shared single-flight memo state behind a Suite and all
// of its WithContext views.
type suiteCaches struct {
	traces par.Cache[traceKey, *trace.Trace]
	loads  par.Cache[traceKey, lvp.LoadSlab]
	anns   par.Cache[annKey, annotated]
	s620   par.Cache[sim620Key, ppc620.Stats]
	s164   par.Cache[sim164Key, axp21164.Stats]
	zoo    par.Cache[zooKey, ZooCell]
}

// NewSuite returns a Suite at the given scale (values below 1 are clamped)
// with the default worker-pool size.
func NewSuite(scale int) *Suite {
	return NewSuiteParallel(scale, 0)
}

// NewSuiteParallel returns a Suite at the given scale running its
// experiment fan-out on a bounded pool of `workers` goroutines (<= 0
// selects the GOMAXPROCS default, 1 is serial).
func NewSuiteParallel(scale, workers int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{
		Scale:    scale,
		MaxSteps: 200_000_000,
		Workers:  workers,
		Metrics:  obs.NewRegistry(),
		caches:   &suiteCaches{},
	}
}

// WithContext returns a view of the suite whose fan-outs and cache builds
// are cancelled when ctx is done. The view shares the suite's caches,
// metrics and tracer; only the lifetime differs, so concurrent jobs can run
// the same suite under independent deadlines. Cancellation stops work
// between cells (a cell already simulating runs to completion) and is
// reported as ctx's error; cancelled builds are never cached
// (par.Cache.GetCtx), so a later run under a live context recomputes them.
func (s *Suite) WithContext(ctx context.Context) *Suite {
	view := *s
	view.ctx = ctx
	return &view
}

// context resolves the suite's lifetime; nil means Background.
func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// workers resolves the effective pool size.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return par.DefaultWorkers()
}

// cacheState resolves the shared memo state, guarding against Suites built
// around NewSuite/NewSuiteParallel.
func (s *Suite) cacheState() *suiteCaches {
	if s.caches == nil {
		panic("exp: Suite must be created with NewSuite or NewSuiteParallel")
	}
	return s.caches
}

// Trace builds (or returns the cached) trace for one benchmark and target.
// Concurrent callers for the same trace share a single build.
func (s *Suite) Trace(name string, target prog.Target) (*trace.Trace, error) {
	ctx := s.context()
	return s.cacheState().traces.GetCtx(ctx, traceKey{name, target.Name, s.Scale}, func() (*trace.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		bm, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := bm.Build(target, s.Scale)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s/%s: %w", name, target.Name, err)
		}
		t, _, err := vm.Run(p, s.MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("exp: running %s/%s: %w", name, target.Name, err)
		}
		s.finishPhase("trace", start,
			slog.String("bench", name), slog.String("target", target.Name),
			slog.Int("records", len(t.Records)))
		return t, nil
	})
}

// Loads returns the benchmark's PPC dynamic-load stream in decode-once slab
// form (PC/value pairs of every load, trace order). The slab is extracted
// once per (benchmark, scale) and shared — the predictor-zoo sweep fans
// every family out over it instead of re-filtering the record stream.
func (s *Suite) Loads(name string) (lvp.LoadSlab, error) {
	ctx := s.context()
	return s.cacheState().loads.GetCtx(ctx, traceKey{name, prog.PPC.Name, s.Scale}, func() (lvp.LoadSlab, error) {
		t, err := s.Trace(name, prog.PPC)
		if err != nil {
			return lvp.LoadSlab{}, err
		}
		return lvp.ExtractLoads(t), nil
	})
}

// finishPhase records one completed pipeline build: its wall time under the
// phase.<phase> timer and the phase.<phase>.wall_ns latency histogram, a
// progress.<phase> completion count, a span on the suite context's trace
// scope (parented under the requesting job's cell span when one is live),
// and — with the pipeline trace channel enabled — one event carrying the
// cell's identity and duration.
func (s *Suite) finishPhase(phase string, start time.Time, attrs ...slog.Attr) {
	elapsed := time.Since(start)
	s.Metrics.Timer("phase." + phase).Observe(elapsed)
	s.Metrics.Histogram("phase." + phase + ".wall_ns").Observe(int64(elapsed))
	s.Metrics.Counter("progress." + phase).Inc()
	obs.CompleteSpan(s.context(), phase, start, attrs...)
	if s.Tracer.Enabled(obs.ChanPipeline) {
		attrs = append(attrs, slog.String("phase", phase),
			slog.Int64("wall_us", elapsed.Microseconds()))
		s.Tracer.Emit(obs.ChanPipeline, "phase-done", attrs...)
	}
}

// Annotation returns the cached LVP annotation and unit stats for one
// benchmark/target/config. The LVP Unit runs exactly once per key across
// all concurrent consumers.
func (s *Suite) Annotation(name string, target prog.Target, cfg lvp.Config) (trace.Annotation, lvp.Stats, error) {
	ctx := s.context()
	r, err := s.cacheState().anns.GetCtx(ctx, annKey{name, target.Name, s.Scale, cfg}, func() (annotated, error) {
		t, err := s.Trace(name, target)
		if err != nil {
			return annotated{}, err
		}
		if err := ctx.Err(); err != nil {
			return annotated{}, err
		}
		start := time.Now()
		a, st, err := lvp.AnnotateTraced(t, cfg, s.Tracer)
		if err != nil {
			return annotated{}, err
		}
		s.recordAnnStats(st)
		s.finishPhase("annotate", start,
			slog.String("bench", name), slog.String("target", target.Name),
			slog.String("config", cfg.Name))
		return annotated{a, st}, nil
	})
	return r.ann, r.st, err
}

// AnnotationStats returns the LVP Unit counters for one
// benchmark/target/config (Tables 3 and 4). It shares the Annotation cache,
// so the unit never re-runs for stats that were already produced.
func (s *Suite) AnnotationStats(name string, target prog.Target, cfg lvp.Config) (lvp.Stats, error) {
	_, st, err := s.Annotation(name, target, cfg)
	return st, err
}

// Sim620 simulates one benchmark on the 620 (plus=false) or 620+ with the
// given LVP config; cfg == nil means no LVP hardware.
func (s *Suite) Sim620(name string, plus bool, cfg *lvp.Config) (ppc620.Stats, error) {
	mc := ppc620.Config620()
	if plus {
		mc = ppc620.Config620Plus()
	}
	return s.sim620(name, mc, cfg)
}

// Sim21164 simulates one benchmark on the 21164 with the given LVP config
// (nil = no LVP hardware).
func (s *Suite) Sim21164(name string, cfg *lvp.Config) (axp21164.Stats, error) {
	return s.sim21164(name, axp21164.Config21164(), cfg)
}

// sim620 is the cached 620-family cell: one simulation per benchmark,
// machine Config and LVP config, fed by cellSource and run by run620.
func (s *Suite) sim620(name string, mc ppc620.Config, cfg *lvp.Config) (ppc620.Stats, error) {
	key := sim620Key{name: name, mc: mc, noLVP: cfg == nil}
	if cfg != nil {
		key.cfg = *cfg
	}
	return s.cacheState().s620.GetCtx(s.context(), key, func() (ppc620.Stats, error) {
		src, err := s.cellSource(name, prog.PPC, cfg)
		if err != nil {
			return ppc620.Stats{}, err
		}
		st, err := s.run620(name, src, mc, configName(cfg))
		if err == nil {
			s.countStreamed(st.Instructions)
		}
		return st, err
	})
}

// sim21164 is the cached 21164-family cell, the counterpart of sim620.
func (s *Suite) sim21164(name string, mc axp21164.Config, cfg *lvp.Config) (axp21164.Stats, error) {
	key := sim164Key{name: name, mc: mc, noLVP: cfg == nil}
	if cfg != nil {
		key.cfg = *cfg
	}
	return s.cacheState().s164.GetCtx(s.context(), key, func() (axp21164.Stats, error) {
		src, err := s.cellSource(name, prog.AXP, cfg)
		if err != nil {
			return axp21164.Stats{}, err
		}
		st, err := s.run21164(name, src, mc, configName(cfg))
		if err == nil {
			s.countStreamed(st.Instructions)
		}
		return st, err
	})
}

// run620 is the timed 620-family core: every 620/620+ simulation in the
// package runs here, so each one is counted on the sim620.* counters, timed
// under phase.sim620 and spanned exactly once.
func (s *Suite) run620(name string, src trace.AnnotatedSource, mc ppc620.Config, cfgName string) (ppc620.Stats, error) {
	if err := s.context().Err(); err != nil {
		return ppc620.Stats{}, err
	}
	start := time.Now()
	st, err := ppc620.SimulateSourceObs(src, mc, cfgName, s.Tracer)
	if err != nil {
		return ppc620.Stats{}, fmt.Errorf("exp: simulating %s/%s: %w", name, mc.Name, err)
	}
	s.record620Stats(st)
	s.finishPhase("sim620", start,
		slog.String("bench", name), slog.String("machine", mc.Name),
		slog.String("config", cfgName))
	return st, nil
}

// run21164 is the timed 21164-family core, the counterpart of run620.
func (s *Suite) run21164(name string, src trace.AnnotatedSource, mc axp21164.Config, cfgName string) (axp21164.Stats, error) {
	if err := s.context().Err(); err != nil {
		return axp21164.Stats{}, err
	}
	start := time.Now()
	st, err := axp21164.SimulateSourceObs(src, mc, cfgName, s.Tracer)
	if err != nil {
		return axp21164.Stats{}, fmt.Errorf("exp: simulating %s/%s: %w", name, mc.Name, err)
	}
	s.record164Stats(st)
	s.finishPhase("sim21164", start,
		slog.String("bench", name), slog.String("machine", mc.Name),
		slog.String("config", cfgName))
	return st, nil
}

// configName labels a simulation with its LVP config; nil is "none".
func configName(cfg *lvp.Config) string {
	if cfg == nil {
		return "none"
	}
	return cfg.Name
}

// forEachBench runs fn for every benchmark on the suite's worker pool and
// returns the lowest-index error.
func (s *Suite) forEachBench(fn func(b bench.Benchmark) error) error {
	return s.forEachBenchIdx(func(_ int, b bench.Benchmark) error { return fn(b) })
}

// forEachBenchIdx is forEachBench plus the benchmark's reporting-order
// index, so drivers can merge results into pre-sized slots without locking:
// each cell owns exactly one slot, and downstream reductions read the slots
// in reporting order regardless of completion order.
func (s *Suite) forEachBenchIdx(fn func(i int, b bench.Benchmark) error) error {
	all := bench.All()
	return s.forEachIdx(len(all), func(i int) error {
		return fn(i, all[i])
	})
}

// forEachIdx runs fn over [0, n) on the suite's worker pool with the
// standard occupancy meter — the raw fan-out under forEachBenchIdx, for
// drivers whose task grid is wider than one benchmark dimension (the zoo
// sweep's family × benchmark cells).
func (s *Suite) forEachIdx(n int, fn func(i int) error) error {
	var meter par.Meter
	if s.Metrics != nil {
		// The pool.busy gauge tracks live worker occupancy; its
		// high-water mark reports how much of the pool the fan-out
		// actually used.
		meter = s.Metrics.Gauge("pool.busy")
	}
	return par.ForEachMeterCtx(s.context(), s.workers(), n, meter, fn)
}
