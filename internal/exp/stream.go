package exp

import (
	"fmt"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// Streaming cells: with Suite.Stream set, a simulation cell's source is the
// full gen → annotate front half run as a single pull-driven pass, so memory
// is bounded by the machine model's window instead of the trace length. The
// streaming and in-memory sources share every stage's implementation
// (vm.Source behind vm.Run, lvp.Annotator behind lvp.Annotate), and both
// feed the same timed simulation core, so their stats are identical — the
// differential tests in this package enforce that on every workload.
//
// Streamed cells bypass the trace/annotation caches by construction (there
// is no materialized trace to share); the per-machine stats caches still
// memoize the final result. Completed cells are counted on
// trace.stream.cells and their records on trace.stream.records.

// cellSource picks the annotated record stream fed to one simulation cell:
// with Stream set a fresh gen → annotate pipeline (see streamSource),
// otherwise the cached trace paired with its cached annotation (cfg == nil
// means no LVP hardware).
func (s *Suite) cellSource(name string, target prog.Target, cfg *lvp.Config) (trace.AnnotatedSource, error) {
	if s.Stream {
		return s.streamSource(name, target, cfg)
	}
	t, err := s.Trace(name, target)
	if err != nil {
		return nil, err
	}
	var ann trace.Annotation
	if cfg != nil {
		if ann, _, err = s.Annotation(name, target, *cfg); err != nil {
			return nil, err
		}
	}
	return t.StreamAnnotated(ann), nil
}

// countStreamed records one completed cell of records records on the
// trace.stream counters when the suite streams its cells.
func (s *Suite) countStreamed(records int) {
	if s.Stream {
		s.Metrics.Counter("trace.stream.cells").Inc()
		s.Metrics.Counter("trace.stream.records").Add(int64(records))
	}
}

// streamSource builds the gen → annotate front half of a streaming cell:
// a functional-VM record source for one benchmark/target, annotated on the
// fly by an LVP unit under cfg (nil = no LVP hardware).
func (s *Suite) streamSource(name string, target prog.Target, cfg *lvp.Config) (trace.AnnotatedSource, error) {
	bm, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := bm.Build(target, s.Scale)
	if err != nil {
		return nil, fmt.Errorf("exp: building %s/%s: %w", name, target.Name, err)
	}
	src := vm.NewSource(p, s.MaxSteps)
	if cfg == nil {
		return trace.NoLVP(src), nil
	}
	pipe, err := lvp.NewPipe(src, *cfg, s.Tracer)
	if err != nil {
		return nil, fmt.Errorf("exp: annotating %s/%s: %w", name, target.Name, err)
	}
	return pipe, nil
}
