package trace

import (
	"encoding/binary"
	"io"
)

// Batched streaming. Every Source and AnnotatedSource moves records in
// bulk through NextBatch, so gen → annotate → sim costs a few dynamic calls
// per batch instead of several per record, and the VLT1 Reader skips its
// per-byte io.ByteReader dispatch. The machine models consume slabs through
// SlabReader, which also takes zero-copy spans where the source offers them.
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

// maxEncodedRecord bounds one VLT1 record's encoding: a 6-byte fixed
// header, up to two 10-byte varints (pc delta, imm), and at most one of
// {size byte + addr + value uvarints, value uvarint [+ target uvarint]} —
// 47 bytes in the widest (memory) shape, padded to a round 64 for the
// Reader's peek window.
const maxEncodedRecord = 64

// NextBatch decodes up to len(buf) records: the batched form of Next.
// Decoding works directly on the bufio peek window with slice-based varint
// reads, which removes the per-byte io.ByteReader dispatch that dominates
// Next; records that sit too close to the window's edge (or fail any
// validation) fall back to Next itself, so error messages and acceptance
// are byte-identical to the record-at-a-time path.
func (r *Reader) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		if r.read >= r.count {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		p, _ := r.br.Peek(maxEncodedRecord)
		if used := r.decodeFast(p, &buf[n]); used > 0 {
			r.br.Discard(used)
			r.read++
			n++
			continue
		}
		// Slow path: near EOF, a record spanning the peek window, or
		// anything invalid. Next re-reads the same bytes and produces the
		// canonical result or error.
		rec, err := r.Next()
		if err != nil {
			return n, err
		}
		buf[n] = *rec
		n++
	}
	return n, nil
}

// decodeFast decodes one record from p into rec and returns the bytes
// consumed, or 0 if p does not contain one complete, valid record (the
// caller then retries through the validating slow path, so "0" never skips
// input). It must accept exactly the records Next accepts; any doubt —
// unknown flags, flag/opcode disagreement, varint overflow, truncation —
// returns 0.
func (r *Reader) decodeFast(p []byte, rec *Record) int {
	if len(p) < 6 {
		return 0
	}
	flags := p[0]
	if flags&^(flagMem|flagTaken|flagTarg|flagVal) != 0 {
		return 0
	}
	*rec = Record{}
	rec.Op = isaOp(p[1])
	rec.Rd, rec.Ra, rec.Rb = isaReg(p[2]), isaReg(p[3]), isaReg(p[4])
	rec.Class = isaLoadClass(p[5])
	if mem := rec.IsLoad() || rec.IsStore(); (flags&flagMem != 0) != mem {
		return 0
	}
	if (flags&flagTarg != 0) != rec.IsBranch() {
		return 0
	}
	if flags&flagVal != 0 && flags&flagMem != 0 {
		return 0
	}
	off := 6
	dpc, k := binary.Varint(p[off:])
	if k <= 0 {
		return 0
	}
	off += k
	rec.Imm, k = binary.Varint(p[off:])
	if k <= 0 {
		return 0
	}
	off += k
	rec.Taken = flags&flagTaken != 0
	if flags&flagMem != 0 {
		if off >= len(p) {
			return 0
		}
		rec.Size = p[off]
		off++
		rec.Addr, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
		rec.Value, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	if flags&flagVal != 0 {
		rec.Value, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	if flags&flagTarg != 0 {
		rec.Targ, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	rec.PC = r.prevPC + uint64(dpc)
	r.prevPC = rec.PC
	return off
}
