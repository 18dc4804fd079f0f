package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("VLT1"), the original single-stream format. It is
// read-only here: every command writes VLT2 (vlt2.go), and an existing VLT1
// file is read once, when vltconv converts it.
//
//	magic   [4]byte  "VLT1"
//	name    uvarint-len + bytes
//	target  uvarint-len + bytes
//	count   uvarint  (number of records)
//	records ...      (delta/varint encoded, see below)
//
// Each record is encoded as a flag byte followed by varints. PCs are encoded
// as signed deltas from the previous record's PC (almost always +4), which
// keeps typical records to a few bytes.
//
// The count field is normally a minimal uvarint. Files from older streaming
// writers, which did not know the count up front, carry it as a padded
// 10-byte uvarint (continuation bit set on the first nine bytes) instead;
// both decode identically.
//
// The decoder is Reader.Next (stream.go); Read below materializes a whole
// trace through it, and Write is the matching reference encoder.

const magic = "VLT1"

const (
	flagMem   = 1 << 0 // has Addr/Value/Size
	flagTaken = 1 << 1
	flagTarg  = 1 << 2 // has branch target
	flagVal   = 1 << 3 // non-memory record with a (nonzero) result value
)

var (
	// ErrBadMagic reports that the input is not a VLT1 trace.
	ErrBadMagic = errors.New("trace: bad magic (not a VLT1 trace file)")
	// ErrStringTooLong reports a header whose name or target declares a
	// length beyond MaxHeaderString. The cap bounds what a corrupt or
	// hostile header can make the decoder allocate.
	ErrStringTooLong = errors.New("trace: header string length exceeds cap")
)

// MaxHeaderString caps the declared length of the header's name and target
// strings.
const MaxHeaderString = 1 << 12

// Write encodes t to w in the VLT1 binary format. No command writes VLT1;
// Write is the reference encoder whose output the reader's tests and the
// cross-format differential decode.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(magic)
	writeString(bw, t.Name)
	writeString(bw, t.Target)
	buf := binary.AppendUvarint(nil, uint64(len(t.Records)))
	bw.Write(buf)
	var prevPC uint64
	for i := range t.Records {
		r := &t.Records[i]
		var flags byte
		if r.IsLoad() || r.IsStore() {
			flags |= flagMem
		} else if r.Value != 0 {
			flags |= flagVal
		}
		if r.Taken {
			flags |= flagTaken
		}
		if r.IsBranch() {
			flags |= flagTarg
		}
		buf = append(buf[:0], flags, byte(r.Op), byte(r.Rd), byte(r.Ra), byte(r.Rb), byte(r.Class))
		buf = binary.AppendVarint(buf, int64(r.PC-prevPC))
		prevPC = r.PC
		buf = binary.AppendVarint(buf, r.Imm)
		if flags&flagMem != 0 {
			buf = append(buf, r.Size)
			buf = binary.AppendUvarint(buf, r.Addr)
			buf = binary.AppendUvarint(buf, r.Value)
		}
		if flags&flagVal != 0 {
			buf = binary.AppendUvarint(buf, r.Value)
		}
		if flags&flagTarg != 0 {
			buf = binary.AppendUvarint(buf, r.Targ)
		}
		bw.Write(buf)
	}
	return bw.Flush()
}

// Read decodes a VLT1 trace from r.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: sr.Name(), Target: sr.Target()}
	// Allocate incrementally rather than trusting the count header: a
	// malformed input claiming billions of records must fail with a
	// decode error, not an enormous up-front allocation.
	const allocChunk = 1 << 16
	t.Records = make([]Record, 0, min(sr.Count(), allocChunk))
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, *rec)
	}
}

func writeString(bw *bufio.Writer, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	bw.Write(buf[:n])
	bw.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	// Reject the length before allocating anything: the header length is
	// attacker-controlled on corrupt input.
	if n > MaxHeaderString {
		return "", fmt.Errorf("%w (%d > %d)", ErrStringTooLong, n, MaxHeaderString)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
