package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Format identifies a trace file format.
type Format uint8

const (
	// FormatVLT1 is the original streaming format (codec.go).
	FormatVLT1 Format = 1
	// FormatVLT2 is the block-structured format (vlt2.go).
	FormatVLT2 Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatVLT1:
		return "vlt1"
	case FormatVLT2:
		return "vlt2"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// FormatByName resolves a format flag value ("vlt1" or "vlt2").
func FormatByName(name string) (Format, error) {
	switch name {
	case "vlt1":
		return FormatVLT1, nil
	case "vlt2":
		return FormatVLT2, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want vlt1 or vlt2)", name)
}

// Decoder is the format-independent streaming read seam: both the VLT1
// Reader and the VLT2 readers satisfy it, so every consumer of trace files
// works on either format. Count is the header/index record count when the
// format carries one up front (VLT1 always, indexed VLT2 always) and 0 when
// it is not yet known (sequential VLT2 before its footer).
type Decoder interface {
	Name() string
	Target() string
	Count() uint64
	Decoded() uint64
	Source
}

// Encoder is the format-independent streaming write seam, satisfied by the
// VLT1 Writer and the VLT2 Writer2.
type Encoder interface {
	WriteRecord(*Record) error
	Count() uint64
	Close() error
}

// Open auto-detects the stream's format on its magic bytes and returns the
// matching sequential Decoder. Any io.Reader works — pipes included; use
// OpenFile to get seeking and parallel decode on VLT2 files.
func Open(r io.Reader) (Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(m) {
	case magic:
		return NewReader(br)
	case magic2:
		return NewReader2(br)
	}
	return nil, ErrBadMagic
}

// OpenFile auto-detects f's format and returns the strongest Decoder the
// format supports: an IndexedReader for VLT2 (O(1) seeking, parallel
// decode, zero-copy block access) or a streaming Reader for VLT1. The file
// must stay open while the Decoder is in use; if the Decoder implements
// io.Closer (the indexed reader does, to release its mapping), close it
// before closing f.
func OpenFile(f *os.File) (Decoder, error) {
	var m [4]byte
	if _, err := f.ReadAt(m[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(m[:]) {
	case magic:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return NewReader(bufio.NewReaderSize(f, 1<<16))
	case magic2:
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		return NewIndexedReader(f, st.Size())
	}
	return nil, ErrBadMagic
}

// NewEncoder returns a streaming Encoder writing the requested format with
// that format's defaults. VLT1 needs the record count up front unless w is
// seekable (see NewWriter); count < 0 means unknown. VLT2 ignores count —
// its totals live in the footer.
func NewEncoder(w io.Writer, format Format, name, target string, count int64) (Encoder, error) {
	switch format {
	case FormatVLT1:
		if count < 0 {
			return NewWriter(w, name, target)
		}
		return NewWriterCount(w, name, target, uint64(count))
	case FormatVLT2:
		return NewWriter2(w, name, target)
	}
	return nil, fmt.Errorf("trace: unknown format %v", format)
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
