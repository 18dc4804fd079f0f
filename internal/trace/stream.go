package trace

import "io"

// The pull contract every producer implements and its in-memory
// implementations. The trace-file reader (IndexedReader, vlt2_index.go)
// satisfies the same contract.

// Source yields the records of a dynamic instruction trace in program
// order. It is the one pull contract every producer implements: the VM,
// the trace-file reader and the in-memory trace.
//
// NextBatch is the working form. It fills buf with as many records as are
// available, up to len(buf), and returns the count; the filled records are
// the caller's to keep. It returns n > 0 with a nil error while records
// remain, and (0, io.EOF) once the stream is exhausted. A decode or
// execution error may follow n > 0 already-valid records.
//
// Next is the per-record oracle the NextBatch differentials check against:
// it returns io.EOF after the final record, and the returned pointer is
// only valid until the next call. A consumer uses one method or the other
// for a whole stream, never both.
type Source interface {
	Next() (*Record, error)
	NextBatch(buf []Record) (int, error)
}

// AnnotatedSource yields records paired with their per-record LVP
// prediction state, the unit of work flowing into the timing models.
// NextBatch fills recs and the parallel states slice (len(states) must be
// at least len(recs)) under Source.NextBatch's contract, and Next is its
// per-record oracle. Annotated reports whether the stream carries real LVP
// annotations; false models a machine without LVP hardware (every state is
// PredNone, and the models skip their prediction-state accounting exactly
// as they do for a nil Annotation).
type AnnotatedSource interface {
	Next() (*Record, PredState, error)
	NextBatch(recs []Record, states []PredState) (int, error)
	Annotated() bool
}

// sliceSource streams an in-memory trace.
type sliceSource struct {
	t *Trace
	i int
}

func (s *sliceSource) Next() (*Record, error) {
	if s.i >= len(s.t.Records) {
		return nil, io.EOF
	}
	r := &s.t.Records[s.i]
	s.i++
	return r, nil
}

func (s *sliceSource) NextBatch(buf []Record) (int, error) {
	if s.i >= len(s.t.Records) {
		return 0, io.EOF
	}
	n := copy(buf, s.t.Records[s.i:])
	s.i += n
	return n, nil
}

// Stream returns a Source yielding t's records in order.
func (t *Trace) Stream() Source { return &sliceSource{t: t} }

// annotatedSlice streams an in-memory trace with its annotation.
type annotatedSlice struct {
	t   *Trace
	ann Annotation
	i   int
}

func (s *annotatedSlice) Next() (*Record, PredState, error) {
	if s.i >= len(s.t.Records) {
		return nil, PredNone, io.EOF
	}
	r := &s.t.Records[s.i]
	st := PredNone
	if s.ann != nil {
		st = s.ann[s.i]
	}
	s.i++
	return r, st, nil
}

func (s *annotatedSlice) Annotated() bool { return s.ann != nil }

// NextBatch copies up to len(recs) records (and their states) in bulk.
func (s *annotatedSlice) NextBatch(recs []Record, states []PredState) (int, error) {
	if s.i >= len(s.t.Records) {
		return 0, io.EOF
	}
	n := copy(recs, s.t.Records[s.i:])
	if s.ann != nil {
		copy(states[:n], s.ann[s.i:s.i+n])
	} else {
		clear(states[:n])
	}
	s.i += n
	return n, nil
}

// NextSpan hands over the remaining records and states as zero-copy views of
// the trace's own backing arrays (nil states when un-annotated), so batch
// consumers walk the in-memory trace without a single per-record call.
func (s *annotatedSlice) NextSpan() ([]Record, []PredState, error) {
	if s.i >= len(s.t.Records) {
		return nil, nil, io.EOF
	}
	recs := s.t.Records[s.i:]
	var states []PredState
	if s.ann != nil {
		states = s.ann[s.i:]
	}
	s.i = len(s.t.Records)
	return recs, states, nil
}

// StreamAnnotated returns an AnnotatedSource pairing t's records with ann.
// A nil ann models a machine without LVP hardware.
func (t *Trace) StreamAnnotated(ann Annotation) AnnotatedSource {
	return &annotatedSlice{t: t, ann: ann}
}

// noLVP adapts a plain Source into an un-annotated AnnotatedSource.
type noLVP struct{ src Source }

func (n noLVP) Next() (*Record, PredState, error) {
	r, err := n.src.Next()
	return r, PredNone, err
}

func (n noLVP) NextBatch(recs []Record, states []PredState) (int, error) {
	m, err := n.src.NextBatch(recs)
	clear(states[:m])
	return m, err
}

func (noLVP) Annotated() bool { return false }

// NoLVP adapts src for a timing model run without LVP hardware: every
// record carries PredNone and Annotated reports false.
func NoLVP(src Source) AnnotatedSource { return noLVP{src} }
