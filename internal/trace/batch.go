package trace

import "io"

// Batched streaming. Every Source and AnnotatedSource moves records in
// bulk through NextBatch, so gen → annotate → sim costs a few dynamic calls
// per batch instead of several per record. The machine models consume slabs
// through SlabReader, which also takes zero-copy spans where the source
// offers them.
//
// Batches never change what flows through the pipeline — only how many
// records move per call. The streamed-vs-in-memory differential gate and
// the NextBatch-vs-Next differentials in batch_test.go pin that equivalence.

// BatchSource is Source; the name is kept for perfbench/, which names it.
type BatchSource = Source

// AnnotatedBatchSource is AnnotatedSource; the name is kept for perfbench/,
// which names it.
type AnnotatedBatchSource = AnnotatedSource

// AnnotatedSpanSource is an annotated source that can hand over
// internally-owned runs of records without copying: NextSpan returns the
// next non-empty run and its parallel prediction states. A nil states slice
// means every record in the run carries PredNone (the un-annotated case,
// saving a dead per-record state array). The returned slices are owned by
// the source and valid only until the next NextSpan call. Returns
// (nil, nil, io.EOF) once the stream is exhausted; an error may follow
// already-delivered spans.
//
// In-memory sources (Trace.StreamAnnotated) satisfy this by returning views
// of their backing arrays, which lets the machine models' batch loops run
// over the trace with zero per-record interface calls and zero copies.
type AnnotatedSpanSource interface {
	AnnotatedSource
	NextSpan() ([]Record, []PredState, error)
}

// slabSize is SlabReader's refill size: large enough to amortize the
// per-batch interface call to nothing, small enough to stay resident in L1
// (256 records ≈ 20 KiB).
const slabSize = 256

// SlabReader adapts an AnnotatedSource for slab-at-a-time consumption: each
// Next hands the caller a view of the next run of records and states. It
// takes zero-copy spans when the source offers them and otherwise refills an
// internal slab through NextBatch, so the timing models' fetch loops are
// written once against slabs. Records delivered before a decode failure are
// always handed over first; the error surfaces on the following Next call.
type SlabReader struct {
	src    AnnotatedSource
	span   AnnotatedSpanSource
	recs   [slabSize]Record
	states [slabSize]PredState
	err    error // pending error, delivered after the current slab drains
}

// NewSlabReader returns a SlabReader over src.
func NewSlabReader(src AnnotatedSource) *SlabReader {
	sr := &SlabReader{src: src}
	sr.span, _ = src.(AnnotatedSpanSource)
	return sr
}

// Annotated reports whether the underlying source carries LVP annotations.
func (s *SlabReader) Annotated() bool { return s.src.Annotated() }

// Next returns the next non-empty slab of records and their states; a nil
// states slice means every record in the slab is PredNone. The slices are
// valid until the following Next call. io.EOF after the final slab.
func (s *SlabReader) Next() ([]Record, []PredState, error) {
	if s.err != nil {
		err := s.err
		s.err = nil
		return nil, nil, err
	}
	var recs []Record
	var states []PredState
	var err error
	if s.span != nil {
		recs, states, err = s.span.NextSpan()
	} else {
		var n int
		n, err = s.src.NextBatch(s.recs[:], s.states[:])
		recs, states = s.recs[:n], s.states[:n]
	}
	if len(recs) == 0 {
		if err == nil {
			err = io.EOF // a (0, nil) source would otherwise spin
		}
		return nil, nil, err
	}
	s.err = err
	return recs, states, nil
}
