package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"lvp/internal/isa"
)

// fuzzSeedTrace is a small hand-built trace exercising every record shape
// the codec distinguishes: loads/stores (mem fields), branches (target),
// plain ops with and without result values, and PC deltas in both
// directions.
func fuzzSeedTrace() *Trace {
	return &Trace{
		Name:   "seed",
		Target: "ppc",
		Records: []Record{
			{PC: 0x1000, Op: isa.ADDI, Rd: 3, Ra: 0, Imm: 42, Value: 42},
			{PC: 0x1004, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8, Addr: 0x2008, Value: 0xdeadbeef, Size: 8, Class: isa.LoadIntData},
			{PC: 0x1008, Op: isa.SD, Rd: 0, Ra: 3, Rb: 4, Imm: 16, Addr: 0x2010, Value: 0xdeadbeef, Size: 8},
			{PC: 0x100c, Op: isa.BEQ, Ra: 4, Imm: -12, Taken: true, Targ: 0x1000},
			{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4, Value: 0},
		},
	}
}

// decodeVLT2 materializes a VLT2 image through the indexed reader.
func decodeVLT2(data []byte) (*Trace, error) {
	ir, err := NewIndexedReaderBytes(data)
	if err != nil {
		return nil, err
	}
	return ReadAll(ir)
}

// TestRoundTripSeed pins decode(encode(t)) == t for the seed trace in a
// plain test, so the property is checked on every `go test` run, not only
// under -fuzz.
func TestRoundTripSeed(t *testing.T) {
	want := fuzzSeedTrace()
	got, err := decodeVLT2(encodeVLT2(want, Writer2Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Target != want.Target {
		t.Fatalf("header: got %q/%q", got.Name, got.Target)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got.Records, want.Records)
	}
}

// oneBlockFile builds a VLT2 image holding a single raw block with the
// given header fields and payload, with a correct block CRC, footer and
// trailer, so the record decoder's own validity rules — not a checksum —
// are what reject a malformed payload.
func oneBlockFile(count, firstPC, firstAddr uint64, payload []byte) []byte {
	out := append([]byte(magic2), version2, 1, 'x', 1, 'y')
	off := uint64(len(out))
	h := blockHdr2{count: count, rawLen: uint64(len(payload)), encLen: uint64(len(payload)),
		firstPC: firstPC, firstAddr: firstAddr}
	blk := h.appendWire(nil)
	blk = binary.LittleEndian.AppendUint32(blk, crc32.Update(crc32.Checksum(blk, castagnoli), castagnoli, payload))
	blk = append(blk, payload...)
	out = append(out, blk...)
	fOff := uint64(len(out))
	f := []byte{blockKindFooter}
	f = appendUvarint(f, 1)
	f = appendUvarint(f, off)
	f = appendUvarint(f, uint64(len(blk)))
	f = appendUvarint(f, count)
	f = appendUvarint(f, count)
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
	f = binary.LittleEndian.AppendUint64(f, fOff)
	return append(append(out, f...), trailerMagic2...)
}

// TestReadRejectsMalformed pins the decoder's strictness: records whose
// fields contradict their opcode, reserved bits, and resource-exhaustion
// counts error cleanly even when every checksum is correct.
func TestReadRejectsMalformed(t *testing.T) {
	add := Record{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4}
	addPayload, _, _ := appendRecord2(nil, &add, add.PC, 0)
	if _, err := decodeVLT2(oneBlockFile(1, add.PC, 0, addPayload)); err != nil {
		t.Fatalf("hand-built block rejected before any mutation: %v", err)
	}
	cases := []struct {
		name string
		data func() []byte
		want error
	}{
		{"bad magic", func() []byte {
			b := encodeVLT2(fuzzSeedTrace(), Writer2Options{})
			b[0] = 'X'
			return b
		}, ErrBadMagic},
		{"unknown flag bits", func() []byte {
			p := bytes.Clone(addPayload)
			p[3] |= 0x80 // a reserved bit above hasVal
			return oneBlockFile(1, add.PC, 0, p)
		}, ErrCorrupt},
		{"truncated", func() []byte {
			b := encodeVLT2(fuzzSeedTrace(), Writer2Options{})
			return b[:len(b)-1]
		}, ErrCorrupt},
		{"huge record count", func() []byte {
			return oneBlockFile(MaxBlockRecords+1, add.PC, 0, addPayload)
		}, ErrCorrupt},
		{"mem flag on non-mem op", func() []byte {
			// The opcode implies the memory fields: an ADD relabelled as a
			// load claims a size, address and value its payload lacks.
			p := bytes.Clone(addPayload)
			p[0] = byte(isa.LD)
			return oneBlockFile(1, add.PC, 0, p)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeVLT2(tc.data())
			if !errors.Is(err, tc.want) {
				t.Fatalf("decode error %v, want %v", err, tc.want)
			}
		})
	}
}
