package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/par"
	"lvp/internal/prog"
)

// TestCacheStatsSingleFlight hits the same annotation key from 64 goroutines
// and asserts — directly from the cache counters — that exactly one build
// happened and everyone else coalesced onto it.
func TestCacheStatsSingleFlight(t *testing.T) {
	s := NewSuite(1)
	const callers = 64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	cs := s.CacheStats()
	if cs.Annotations.Gets != callers {
		t.Errorf("annotation gets = %d, want %d", cs.Annotations.Gets, callers)
	}
	if got := cs.Annotations.Builds(); got != 1 {
		t.Errorf("annotation builds = %d, want 1 (single-flight)", got)
	}
	if cs.Annotations.Entries != 1 {
		t.Errorf("annotation entries = %d, want 1", cs.Annotations.Entries)
	}
	if cs.Annotations.Hits != callers-1 {
		t.Errorf("annotation hits = %d, want %d", cs.Annotations.Hits, callers-1)
	}
	// The annotation build pulled the trace exactly once.
	if got := cs.Traces.Builds(); got != 1 {
		t.Errorf("trace builds = %d, want 1", got)
	}
	if rate := cs.Annotations.HitRate(); rate <= 0.9 {
		t.Errorf("annotation hit rate = %v, want > 0.9", rate)
	}
}

// TestSuiteMetricsPopulated runs one cell of each phase and checks the
// registry carries the snapshot fields the acceptance criteria name:
// per-phase timings, LVPT/LCT/CVU counters, and par.Cache rates.
func TestSuiteMetricsPopulated(t *testing.T) {
	s := NewSuite(1)
	if _, _, err := s.Annotation("quick", prog.PPC, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	cfg := lvp.Simple
	if _, err := s.Sim620("quick", false, &cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sim21164("quick", &cfg); err != nil {
		t.Fatal(err)
	}
	s.FinalizeMetrics()

	snap := s.Metrics.Snapshot()
	for _, c := range []string{
		"lvp.loads", "lvpt.lookups", "lvpt.hits", "lvpt.updates",
		"lct.lookups", "lct.updates",
		"cvu.lookups", "cvu.inserts",
		"sim620.runs", "sim620.cycles", "sim21164.runs", "sim21164.cycles",
		"progress.trace", "progress.annotate", "progress.sim620", "progress.sim21164",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, snap.Counters[c])
		}
	}
	for _, tm := range []string{"phase.trace", "phase.annotate", "phase.sim620", "phase.sim21164"} {
		if snap.Timers[tm].Count == 0 {
			t.Errorf("timer %q missing from snapshot", tm)
		}
	}
	for _, g := range []string{"cache.traces.gets", "cache.annotations.gets", "cache.sims620.entries"} {
		if snap.Gauges[g].Value <= 0 {
			t.Errorf("gauge %q = %d, want > 0", g, snap.Gauges[g].Value)
		}
	}
	// At least one LCT transition pair was exercised.
	found := false
	for name := range snap.Counters {
		if strings.HasPrefix(name, "lct.trans.") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no lct.trans.* counters recorded")
	}
}

// TestSuiteTracerEmitsJSONL runs an annotation with the lvpt and pipeline
// channels live and validates every emitted line parses as JSON.
func TestSuiteTracerEmitsJSONL(t *testing.T) {
	s := NewSuite(1)
	var buf bytes.Buffer
	s.Tracer = obs.NewTracer(&buf, obs.ChanLVPT|obs.ChanPipeline)
	if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("got %d trace lines, want at least a load event and a phase-done", len(lines))
	}
	sawLoad, sawPhase := false, false
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v: %q", i, err, line)
		}
		switch m["chan"] {
		case "lvpt":
			sawLoad = true
		case "pipeline":
			sawPhase = true
		default:
			t.Fatalf("line %d on unexpected channel %v", i, m["chan"])
		}
	}
	if !sawLoad || !sawPhase {
		t.Errorf("missing events: lvpt=%v pipeline=%v", sawLoad, sawPhase)
	}
}

// TestNilMetricsSuite checks a bare Suite (no registry, no tracer) still
// runs every phase: instrumentation must never be load-bearing.
func TestNilMetricsSuite(t *testing.T) {
	s := &Suite{Scale: 1, MaxSteps: 200_000_000, caches: &suiteCaches{}}
	if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	cfg := lvp.Simple
	if _, err := s.Sim21164("quick", &cfg); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Annotations.Builds() != 1 {
		t.Errorf("annotation builds = %d, want 1", cs.Annotations.Builds())
	}
}

// TestAblationCellsShareSuiteCache pins the one simulation entry per
// machine model: resourcesweep and mafablation run through the suite's
// cached cells, so their variants that equal a paper machine — base 620 and
// 620+ without LVP, 21164 without LVP and with Simple — are cache hits on
// the cells fig6/table6 already built, and only the genuinely new variants
// simulate (each counted once on progress.sim620/sim21164).
func TestAblationCellsShareSuiteCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four whole-suite experiments; skipped in -short")
	}
	s := NewSuite(1)
	if _, err := s.Figure6(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table6(); err != nil {
		t.Fatal(err)
	}
	nb := int64(len(bench.All()))
	check := func(when string, got par.CacheStats, before par.CacheStats, gets, hits int64) {
		t.Helper()
		if d := got.Gets - before.Gets; d != gets*nb {
			t.Errorf("%s: gets +%d, want +%d", when, d, gets*nb)
		}
		if d := got.Hits - before.Hits; d != hits*nb {
			t.Errorf("%s: hits +%d, want +%d", when, d, hits*nb)
		}
		if d := int64(got.Entries - before.Entries); d != (gets-hits)*nb {
			t.Errorf("%s: entries +%d, want +%d", when, d, (gets-hits)*nb)
		}
	}
	progress := func() (int64, int64) {
		return s.Metrics.Counter("progress.sim620").Value(), s.Metrics.Counter("progress.sim21164").Value()
	}

	before := s.CacheStats()
	p620, p164 := progress()
	if _, err := s.ResourceSweep(); err != nil {
		t.Fatal(err)
	}
	// Six variants per benchmark; base 620 and 620+ are hits.
	check("resourcesweep", s.CacheStats().Sims620, before.Sims620, 6, 2)
	if got, _ := progress(); got-p620 != 4*nb {
		t.Errorf("resourcesweep: progress.sim620 +%d, want +%d", got-p620, 4*nb)
	}

	before = s.CacheStats()
	if _, err := s.MAFAblation(); err != nil {
		t.Fatal(err)
	}
	// Four cells per benchmark; the blocking (paper) pair are hits.
	check("mafablation", s.CacheStats().Sims21164, before.Sims21164, 4, 2)
	if _, got := progress(); got-p164 != 2*nb {
		t.Errorf("mafablation: progress.sim21164 +%d, want +%d", got-p164, 2*nb)
	}
}
