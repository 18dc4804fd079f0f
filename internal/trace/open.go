package trace

import (
	"io"
	"os"

	"lvp/internal/obs"
)

// Decoder is the read side of a trace file: the header, the record count
// (known up front from the footer index), the block layout, seeking, and
// the Source contract for the records themselves. IndexedReader is its
// implementation.
type Decoder interface {
	Name() string
	Target() string
	Count() uint64
	Decoded() uint64
	Blocks() int
	WireBytes() uint64
	SeekRecord(n uint64) error
	SetMetrics(m *obs.Registry)
	Source
	io.Closer
}

// OpenFile opens the VLT2 trace in f through its footer index, mapping the
// file into memory where the platform supports it. The file must stay open
// while the Decoder is in use; Close the Decoder, which releases the
// mapping, before closing f. A VLT1 file fails with an error that wraps
// ErrBadMagic and names the fix.
func OpenFile(f *os.File) (Decoder, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ir, err := NewIndexedReader(f, st.Size())
	if err != nil {
		return nil, err
	}
	return ir, nil
}

// ReadAll drains d into an in-memory Trace.
func ReadAll(d Decoder) (*Trace, error) {
	t := &Trace{Name: d.Name(), Target: d.Target()}
	const allocChunk = 1 << 16
	t.Records = make([]Record, 0, min(d.Count(), allocChunk))
	buf := make([]Record, 1024)
	for {
		n, err := d.NextBatch(buf)
		t.Records = append(t.Records, buf[:n]...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
