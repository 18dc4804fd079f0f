package trace

import (
	"errors"
	"io"
	"reflect"
	"testing"
)

// drainNext decodes an entire stream record-at-a-time, copying each record,
// and returns the records plus the terminal error (nil for a clean EOF).
func drainNext(r Source) ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, *rec)
	}
}

// drainBatch decodes an entire stream via NextBatch with the given buffer
// size and returns the records plus the terminal error (nil for clean EOF).
func drainBatch(r Source, bufSize int) ([]Record, error) {
	var recs []Record
	buf := make([]Record, bufSize)
	for {
		n, err := r.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// TestReaderNextBatchMatchesNext is the batch layer's codec differential:
// NextBatch must decode exactly the record sequence Next does, for buffer
// sizes spanning the degenerate (1), the awkward (odd, straddling block
// boundaries) and the typical (batch-sized and larger than a block).
func TestReaderNextBatchMatchesNext(t *testing.T) {
	enc := encodeVLT2(genTrace(5003), Writer2Options{BlockRecords: 512})
	want, err := func() ([]Record, error) {
		r, err := NewIndexedReaderBytes(enc)
		if err != nil {
			return nil, err
		}
		return drainNext(r)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, bufSize := range []int{1, 3, 7, 64, 256, 4096} {
		r, err := NewIndexedReaderBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainBatch(r, bufSize)
		if err != nil {
			t.Fatalf("bufSize %d: %v", bufSize, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bufSize %d: batched decode differs from record-at-a-time", bufSize)
		}
	}
}

// TestReaderNextBatchErrorsMatchNext truncates and corrupts an encoded
// multi-block file at every seventh byte offset: the batched reader must
// deliver exactly the records the record-at-a-time reader delivers and
// then fail with the identical error message.
func TestReaderNextBatchErrorsMatchNext(t *testing.T) {
	enc := encodeVLT2(genTrace(64), Writer2Options{BlockRecords: 7})
	for off := 10; off < len(enc); off += 7 {
		// Truncation at off.
		runBatchErrDiff(t, enc[:off])
		// Single-byte corruption at off.
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0xff
		runBatchErrDiff(t, mut)
	}
}

// runBatchErrDiff decodes enc through both paths and requires identical
// record prefixes and identical terminal errors. Header, footer and index
// failures make the open itself fail; those are trivially identical.
func runBatchErrDiff(t *testing.T, enc []byte) {
	t.Helper()
	r1, err1 := NewIndexedReaderBytes(enc)
	r2, err2 := NewIndexedReaderBytes(enc)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("open divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	want, wantErr := drainNext(r1)
	got, gotErr := drainBatch(r2, 256)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d records via batch, %d via Next", len(got), len(want))
	}
	wantMsg, gotMsg := "", ""
	if wantErr != nil {
		wantMsg = wantErr.Error()
	}
	if gotErr != nil {
		gotMsg = gotErr.Error()
	}
	if wantMsg != gotMsg {
		t.Fatalf("error divergence:\n next  %q\n batch %q", wantMsg, gotMsg)
	}
}

// errAfterSource yields k records and then a non-EOF error in the same
// NextBatch call, exercising the records-then-error contract.
type errAfterSource struct {
	recs []Record
	err  error
	done bool
}

func (s *errAfterSource) Next() (*Record, PredState, error) { panic("batch only") }

func (s *errAfterSource) NextBatch(recs []Record, states []PredState) (int, error) {
	if s.done {
		return 0, s.err
	}
	s.done = true
	n := copy(recs, s.recs)
	for i := 0; i < n; i++ {
		states[i] = PredNone
	}
	return n, s.err
}

func (s *errAfterSource) Annotated() bool { return false }

// drainSlabs reads sr to the end, copying every record and state.
func drainSlabs(t *testing.T, sr *SlabReader) ([]Record, []PredState) {
	t.Helper()
	var recs []Record
	var states []PredState
	for {
		rs, sts, err := sr.Next()
		if err == io.EOF {
			return recs, states
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
		if sts == nil {
			sts = make([]PredState, len(rs))
		}
		states = append(states, sts...)
	}
}

// TestSlabReaderMatchesReader pins both SlabReader branches: slabs refilled
// through NextBatch (a NoLVP-wrapped trace reader) and zero-copy spans (an
// in-memory trace) must yield exactly the per-record sequence of the
// unbuffered source, with the PredNone states of an un-annotated stream.
func TestSlabReaderMatchesReader(t *testing.T) {
	tr := genTrace(3001)
	enc := encodeVLT2(tr, Writer2Options{BlockRecords: 1000})
	r1, err := NewIndexedReaderBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainNext(r1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewIndexedReaderBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []AnnotatedSource{NoLVP(r2), tr.StreamAnnotated(nil)} {
		sr := NewSlabReader(src)
		if sr.Annotated() {
			t.Fatal("un-annotated source must not report annotations")
		}
		got, states := drainSlabs(t, sr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: slab records differ from direct decode", src)
		}
		for i, st := range states {
			if st != PredNone {
				t.Fatalf("%T: record %d state = %v, want PredNone", src, i, st)
			}
		}
	}
}

// TestSlabReaderDeliversRecordsBeforeError: when a batch arrives as
// (n > 0, err), the SlabReader must hand out all n records before surfacing
// the error on the following call.
func TestSlabReaderDeliversRecordsBeforeError(t *testing.T) {
	boom := errors.New("boom")
	sr := NewSlabReader(&errAfterSource{recs: genTrace(5).Records, err: boom})
	recs, _, err := sr.Next()
	if err != nil || len(recs) != 5 {
		t.Fatalf("first slab: %d records, err %v; want 5, nil", len(recs), err)
	}
	if _, _, err := sr.Next(); err != boom {
		t.Fatalf("after drain: err = %v, want boom", err)
	}
}
