package exp

import (
	"io"
	"reflect"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// streamDiffBenches is the workload set for the differential tests: every
// benchmark normally, a fixed subset under -short (the race gate runs
// -short, and the full cross-product is too slow under the detector).
func streamDiffBenches() []bench.Benchmark {
	all := bench.All()
	if testing.Short() {
		return all[:4]
	}
	return all
}

// streamCell runs the streaming gen → annotate front half for one cell and
// materializes what flows out of it, so it can be compared against the
// in-memory pipeline.
func streamCell(t *testing.T, name string, target prog.Target, cfg lvp.Config, scale, maxSteps int) ([]trace.Record, trace.Annotation) {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bm.Build(target, scale)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := lvp.NewPipe(vm.NewSource(p, maxSteps), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	var ann trace.Annotation
	for {
		r, st, err := pipe.Next()
		if err == io.EOF {
			return recs, ann
		}
		if err != nil {
			t.Fatalf("stream %s/%s: %v", name, target.Name, err)
		}
		recs = append(recs, *r)
		ann = append(ann, st)
	}
}

// runStreamDifferential is the tentpole's end-to-end differential: for each
// workload, the streaming pipeline must produce (a) the exact record
// sequence and annotation bytes of the in-memory gen → annotate path, and
// (b) simulation stats identical to the in-memory path on all three machine
// models. With parallel=true the per-bench subtests run concurrently, so
// the streaming cells also exercise the suite caches under contention.
func runStreamDifferential(t *testing.T, parallel bool) {
	mem := NewSuiteParallel(1, 1)
	stream := NewSuiteParallel(1, 1)
	stream.Stream = true
	for _, b := range streamDiffBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if parallel {
				t.Parallel()
			}
			cfg := lvp.Simple

			// Gen → annotate: byte-identical records and annotation.
			wantTr, err := mem.Trace(b.Name, prog.PPC)
			if err != nil {
				t.Fatal(err)
			}
			wantAnn, _, err := mem.Annotation(b.Name, prog.PPC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs, ann := streamCell(t, b.Name, prog.PPC, cfg, mem.Scale, mem.MaxSteps)
			if !reflect.DeepEqual(recs, wantTr.Records) {
				t.Fatal("streamed records differ from the materialized trace")
			}
			if !reflect.DeepEqual(ann, wantAnn) {
				t.Fatal("streamed annotation differs from the in-memory annotation")
			}

			// Sim stats: streaming suite vs in-memory suite on every
			// machine model, with and without LVP hardware.
			m620, err := mem.Sim620(b.Name, false, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			s620, err := stream.Sim620(b.Name, false, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m620, s620) {
				t.Fatalf("620 stats differ:\n mem    %+v\n stream %+v", m620, s620)
			}
			m620p, err := mem.Sim620(b.Name, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			s620p, err := stream.Sim620(b.Name, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m620p, s620p) {
				t.Fatalf("620+ (no LVP) stats differ:\n mem    %+v\n stream %+v", m620p, s620p)
			}
			m164, err := mem.Sim21164(b.Name, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			s164, err := stream.Sim21164(b.Name, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m164, s164) {
				t.Fatalf("21164 stats differ:\n mem    %+v\n stream %+v", m164, s164)
			}
		})
	}
}

// TestStreamDifferential checks every workload serially.
func TestStreamDifferential(t *testing.T) {
	runStreamDifferential(t, false)
}

// TestStreamDifferentialParallel re-runs the differential with concurrent
// per-bench subtests: same invariants, now with the streaming cells racing
// through the shared suite caches (the race gate runs this under -race).
func TestStreamDifferentialParallel(t *testing.T) {
	runStreamDifferential(t, true)
}

// TestStreamCellsMetered pins the streaming telemetry: streamed cells
// report under progress.sim620/sim21164 and phase.sim620/sim21164 like
// in-memory ones, so the lvpsim exit summary and -progress line count
// them, while trace.stream.cells counts each streamed cell once and
// trace.stream.records its records.
func TestStreamCellsMetered(t *testing.T) {
	s := NewSuiteParallel(1, 1)
	s.Stream = true
	name := bench.All()[0].Name
	cfg := lvp.Simple
	var records int64
	for _, plus := range []bool{false, true} {
		st, err := s.Sim620(name, plus, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		records += int64(st.Instructions)
	}
	st, err := s.Sim21164(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	records += int64(st.Instructions)
	// Cached re-requests simulate nothing new.
	if _, err := s.Sim620(name, false, &cfg); err != nil {
		t.Fatal(err)
	}
	for c, want := range map[string]int64{
		"progress.sim620":      2,
		"progress.sim21164":    1,
		"trace.stream.cells":   3,
		"trace.stream.records": records,
	} {
		if got := s.Metrics.Counter(c).Value(); got != want {
			t.Errorf("%s = %d, want %d", c, got, want)
		}
	}
	snap := s.Metrics.Snapshot()
	for _, tm := range []string{"phase.sim620", "phase.sim21164"} {
		if snap.Timers[tm].Count == 0 {
			t.Errorf("timer %q missing: streamed cells must time under it", tm)
		}
	}
}

// BenchmarkStreamPipeline measures a full streaming gen → annotate → sim
// cell; BenchmarkMemPipeline is the same cell through the materialized
// in-memory pipeline (excluding suite caches on both sides).
func BenchmarkStreamPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSuiteParallel(1, 1)
		s.Stream = true
		if _, err := s.Sim620(bench.All()[0].Name, false, &lvp.Simple); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSuiteParallel(1, 1)
		if _, err := s.Sim620(bench.All()[0].Name, false, &lvp.Simple); err != nil {
			b.Fatal(err)
		}
	}
}
