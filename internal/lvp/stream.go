package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Annotator is the streaming form of Annotate: records are fed in trace
// order, one at a time, and each receives its prediction state immediately.
// It is phase 2 of the pipeline without the materialized trace — the unit
// state, classification and CVU discipline are exactly Annotate's, because
// Annotate is implemented on top of it. Record is allocation-free, so the
// per-load predict/verify path can run inside the fused gen→annotate→sim
// pipeline at full speed.
type Annotator struct {
	u *Unit
	// Gather scratch for RecordBatch: consecutive loads are copied into
	// these parallel slices so Unit.LoadBatch runs over plain arrays. They
	// grow to the longest load run seen and are then reused.
	pcs, addrs, vals []uint64
}

// NewAnnotator returns a streaming annotator for the given configuration;
// tr attaches an event tracer (nil disables tracing).
func NewAnnotator(cfg Config, tr *obs.Tracer) (*Annotator, error) {
	u, err := NewUnit(cfg)
	if err != nil {
		return nil, err
	}
	u.SetTracer(tr)
	return &Annotator{u: u}, nil
}

// Record processes one record: loads are predicted and verified, stores
// invalidate the CVU, and everything else passes through as PredNone.
func (a *Annotator) Record(r *trace.Record) trace.PredState {
	switch {
	case r.IsLoad():
		return a.u.Load(r.PC, r.Addr, r.Value)
	case r.IsStore():
		a.u.Store(r.Addr, int(r.Size))
	}
	return trace.PredNone
}

// RecordBatch processes recs in order, writing each record's state into the
// parallel states slice (len(states) must be at least len(recs)). It is
// exactly len(recs) calls to Record: runs of consecutive loads are gathered
// into parallel operand slices and handed to Unit.LoadBatch (whose states
// land contiguously back in states), stores and other records are handled
// in place. Trace order — and with it the CVU invalidation discipline — is
// preserved exactly.
func (a *Annotator) RecordBatch(recs []trace.Record, states []trace.PredState) {
	u := a.u
	for i := 0; i < len(recs); {
		r := &recs[i]
		if !r.IsLoad() {
			if r.IsStore() {
				u.Store(r.Addr, int(r.Size))
			}
			states[i] = trace.PredNone
			i++
			continue
		}
		j := i + 1
		for j < len(recs) && recs[j].IsLoad() {
			j++
		}
		a.pcs, a.addrs, a.vals = a.pcs[:0], a.addrs[:0], a.vals[:0]
		for k := i; k < j; k++ {
			rk := &recs[k]
			a.pcs = append(a.pcs, rk.PC)
			a.addrs = append(a.addrs, rk.Addr)
			a.vals = append(a.vals, rk.Value)
		}
		u.LoadBatch(a.pcs, a.addrs, a.vals, states[i:j])
		i = j
	}
}

// Stats returns the unit statistics accumulated so far.
func (a *Annotator) Stats() Stats { return a.u.Stats() }

// Pipe adapts a record source into the annotated stream the timing models
// consume: each NextBatch (or its per-record oracle, Next) pulls from src,
// annotates what it pulled, and hands it downstream without buffering.
// Stats is valid once the stream has drained (io.EOF).
type Pipe struct {
	src trace.Source
	a   *Annotator
}

// NewPipe returns an annotated stream over src under cfg; tr attaches an
// event tracer (nil disables tracing).
func NewPipe(src trace.Source, cfg Config, tr *obs.Tracer) (*Pipe, error) {
	a, err := NewAnnotator(cfg, tr)
	if err != nil {
		return nil, err
	}
	return &Pipe{src: src, a: a}, nil
}

// Next yields the next record and its prediction state; io.EOF after the
// final record.
func (p *Pipe) Next() (*trace.Record, trace.PredState, error) {
	r, err := p.src.Next()
	if err != nil {
		return nil, trace.PredNone, err
	}
	return r, p.a.Record(r), nil
}

// NextBatch pulls up to len(recs) records from the source and annotates
// them in order (see trace.AnnotatedSource): the whole gen → annotate hop
// costs two calls per batch.
func (p *Pipe) NextBatch(recs []trace.Record, states []trace.PredState) (int, error) {
	n, err := p.src.NextBatch(recs)
	p.a.RecordBatch(recs[:n], states[:n])
	return n, err
}

// Annotated reports that the stream carries real LVP annotations.
func (p *Pipe) Annotated() bool { return true }

// Stats returns the unit statistics accumulated so far.
func (p *Pipe) Stats() Stats { return p.a.Stats() }
