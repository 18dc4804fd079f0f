package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// Craft a VLT2 file whose footer index entry sizes overflow off+sz, wrapping
// the contiguity cursor, to see whether open/stageBlock panics.
func TestReviewFooterSizeOverflow(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter2Opts(&buf, "n", "t", Writer2Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{PC: 0x1000}
	for i := 0; i < 3; i++ {
		if err := w.WriteRecord(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Locate the original footer via the trailer.
	fOff := binary.LittleEndian.Uint64(data[len(data)-trailerLen2:])
	hdrLen := uint64(4 + 1 + 2 + 2) // magic, version, "n", "t"

	// Rebuild: keep header+block bytes, forge a 2-entry footer:
	// entry0 off=hdrLen, sz wraps wantOff to 5; entry1 off=5, sz=fOff-5.
	out := append([]byte(nil), data[:fOff]...)
	f := []byte{blockKindFooter}
	f = appendUvarint(f, 2)
	f = appendUvarint(f, hdrLen)
	f = appendUvarint(f, (1<<64-1)-hdrLen+5+1) // off+sz ≡ 5 (mod 2^64)
	f = appendUvarint(f, 1)
	f = appendUvarint(f, 5)
	f = appendUvarint(f, fOff-5)
	f = appendUvarint(f, 2)
	f = appendUvarint(f, 3) // total records
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
	f = binary.LittleEndian.AppendUint64(f, fOff)
	f = append(f, trailerMagic2...)
	out = append(out, f...)

	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("panicked on hostile footer: %v", p)
		}
	}()
	ir, err := NewIndexedReaderBytes(out)
	if err != nil {
		t.Logf("open rejected: %v", err)
		return
	}
	var rb [8]Record
	_, err = ir.NextBatch(rb[:])
	t.Logf("NextBatch err: %v", err)
}
