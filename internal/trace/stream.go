package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The record-at-a-time pull contract every producer implements, its
// in-memory implementations, and the VLT1 Reader. The Reader is the one
// VLT1 decoder: the whole-trace Read in codec.go is implemented on top of
// it. Its Next is allocation-free after construction (it decodes into an
// internal reused Record), so callers that retain records across Next calls
// must copy them.

// Source yields the records of a dynamic instruction trace in program
// order. It is the one pull contract every producer implements: the VM,
// the trace readers and the in-memory trace.
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

// Reader decodes a VLT1 stream record-at-a-time. The header (name, target,
// count) is read at construction; Next then yields each record without
// per-record allocation, validating exactly as the whole-trace Read does.
type Reader struct {
	br     *bufio.Reader
	name   string
	target string
	count  uint64
	read   uint64
	prevPC uint64
	rec    Record
	hdr    [6]byte
}

// NewReader reads and validates the VLT1 header from r and returns a
// streaming Reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	sr := &Reader{br: br}
	var err error
	if sr.name, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if sr.target, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading target: %w", err)
	}
	if sr.count, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxReasonable = 1 << 32
	if sr.count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible record count %d", sr.count)
	}
	return sr, nil
}

// Name returns the trace's benchmark name from the header.
func (r *Reader) Name() string { return r.name }

// Target returns the trace's codegen target from the header.
func (r *Reader) Target() string { return r.target }

// Count returns the header's record count.
func (r *Reader) Count() uint64 { return r.count }

// Decoded returns the number of records decoded so far.
func (r *Reader) Decoded() uint64 { return r.read }

// Next decodes the next record into the Reader's internal record and
// returns it; io.EOF after the final record. The pointer is invalidated by
// the following Next call. Validation matches Read: unknown flag bits,
// flag/opcode inconsistencies and truncation all fail with an error naming
// the record index.
func (r *Reader) Next() (*Record, error) {
	if r.read >= r.count {
		return nil, io.EOF
	}
	i := r.read
	rec := &r.rec
	*rec = Record{}
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: record %d header: %w", i, err)
	}
	flags := r.hdr[0]
	if flags&^(flagMem|flagTaken|flagTarg|flagVal) != 0 {
		return nil, fmt.Errorf("trace: record %d: unknown flag bits %#02x", i, flags)
	}
	rec.Op = isaOp(r.hdr[1])
	rec.Rd, rec.Ra, rec.Rb = isaReg(r.hdr[2]), isaReg(r.hdr[3]), isaReg(r.hdr[4])
	rec.Class = isaLoadClass(r.hdr[5])
	// The flag byte is redundant with the opcode; reject records where
	// they disagree so every decoded trace is canonical (and re-encodes
	// to the same semantic records).
	if mem := rec.IsLoad() || rec.IsStore(); (flags&flagMem != 0) != mem {
		return nil, fmt.Errorf("trace: record %d: mem flag inconsistent with opcode %v", i, rec.Op)
	}
	if (flags&flagTarg != 0) != rec.IsBranch() {
		return nil, fmt.Errorf("trace: record %d: branch-target flag inconsistent with opcode %v", i, rec.Op)
	}
	if flags&flagVal != 0 && flags&flagMem != 0 {
		return nil, fmt.Errorf("trace: record %d: value flag on a memory record", i)
	}
	dpc, err := binary.ReadVarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("trace: record %d pc: %w", i, err)
	}
	rec.PC = r.prevPC + uint64(dpc)
	r.prevPC = rec.PC
	if rec.Imm, err = binary.ReadVarint(r.br); err != nil {
		return nil, fmt.Errorf("trace: record %d imm: %w", i, err)
	}
	rec.Taken = flags&flagTaken != 0
	if flags&flagMem != 0 {
		sz, err := r.br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d size: %w", i, err)
		}
		rec.Size = sz
		if rec.Addr, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d value: %w", i, err)
		}
	}
	if flags&flagVal != 0 {
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d result value: %w", i, err)
		}
	}
	if flags&flagTarg != 0 {
		if rec.Targ, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d target: %w", i, err)
		}
	}
	r.read++
	return rec, nil
}

// NextBatch decodes up to len(buf) records through Next, under Source's
// batch contract. VLT1 is read once, when a file is converted to VLT2, so
// it keeps no separate batched decode loop.
func (r *Reader) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		buf[n] = *rec
		n++
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}
