package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
)

// fuzzCodecs covers both codecs and an awkward block size, so the fuzz and
// hostile-input gates exercise each decode path (raw, flate, and
// multi-block boundaries).
var fuzzCodecs = []Writer2Options{
	{},
	{Codec: CodecFlate},
	{BlockRecords: 7},
	{Codec: CodecFlate, BlockRecords: 7},
}

// retiredCodecs are the codec bytes of the removed fixed-width codecs.
var retiredCodecs = []BlockCodec{2, 3}

// setCodecByte returns a copy of enc with the codec byte of the block at
// off replaced by c. The block CRC is left stale: header validation rejects
// an unsupported codec before the checksum is computed.
func setCodecByte(enc []byte, off uint64, c BlockCodec) []byte {
	m := bytes.Clone(enc)
	pos := int(off) + 1 // past the kind byte
	for range 2 {       // count, rawLen
		_, k := binary.Uvarint(m[pos:])
		pos += k
	}
	m[pos] = byte(c)
	return m
}

func encodeVLT2(tr *Trace, opts Writer2Options) []byte {
	var buf bytes.Buffer
	if err := Write2(&buf, tr, opts); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// decodeAllVLT2 drains a decoder without a testing.T, for use inside the
// fuzz body where decode errors are data, not failures.
func decodeAllVLT2(d Decoder) ([]Record, error) {
	var recs []Record
	buf := make([]Record, 300)
	for {
		n, err := d.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// FuzzVLT2RoundTrip feeds arbitrary bytes to the VLT2 reader. The
// invariants:
//
//  1. the reader never panics — hostile input must come back as a clean
//     error;
//  2. any accepted input is canonical: re-encoding the decoded records and
//     decoding again reproduces them exactly, under each codec and block
//     size.
func FuzzVLT2RoundTrip(f *testing.F) {
	seed := &Trace{Name: "seed", Target: "ppc", Records: genRecords(300, 7)}
	for _, opts := range fuzzCodecs {
		f.Add(encodeVLT2(seed, opts))
	}
	// A block carrying a retired codec byte: rejected as corrupt.
	firstBlock := uint64(len(magic2) + 1 + 1 + len(seed.Name) + 1 + len(seed.Target))
	for _, c := range retiredCodecs {
		f.Add(setCodecByte(encodeVLT2(seed, Writer2Options{}), firstBlock, c))
	}
	f.Add(encodeVLT2(&Trace{Name: "empty", Target: "axp"}, Writer2Options{}))
	valid := encodeVLT2(seed, Writer2Options{BlockRecords: 64})
	f.Add([]byte{})
	f.Add([]byte("VLT2"))
	f.Add(valid[:len(valid)-1])             // truncated trailer
	f.Add(valid[:len(valid)/2])             // truncated mid-block
	f.Add(append(bytes.Clone(valid), 0xAA)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		ir, err := NewIndexedReaderBytes(data)
		if err != nil {
			return
		}
		recs, err := decodeAllVLT2(ir)
		if err != nil {
			return
		}
		tr := &Trace{Name: ir.Name(), Target: ir.Target(), Records: recs}
		for _, opts := range fuzzCodecs {
			re, err := NewIndexedReaderBytes(encodeVLT2(tr, opts))
			if err != nil {
				t.Fatalf("re-encode (%v) rejected: %v", opts, err)
			}
			rerecs, err := decodeAllVLT2(re)
			if err != nil {
				t.Fatalf("re-encode (%v) decode failed: %v", opts, err)
			}
			if !reflect.DeepEqual(rerecs, recs) {
				t.Fatalf("re-encode (%v) changed the records", opts)
			}
		}
	})
}

// rebuiltFooter re-emits enc with its footer index replaced by entries,
// recomputing the footer CRC so only the index semantics — not the
// checksum — are under test.
func rebuiltFooter(enc []byte, ir *IndexedReader, entries []indexEnt2, total uint64) []byte {
	out := bytes.Clone(enc[:ir.fOff])
	f := []byte{blockKindFooter}
	f = appendUvarint(f, uint64(len(entries)))
	for _, e := range entries {
		f = appendUvarint(f, e.off)
		f = appendUvarint(f, e.size)
		f = appendUvarint(f, e.count)
	}
	f = appendUvarint(f, total)
	out = append(out, f...)
	out = appendUint32LE(out, crc32.Checksum(f, castagnoli))
	out = appendUint64LE(out, ir.fOff)
	out = append(out, trailerMagic2...)
	return out
}

// TestVLT2Hostile corrupts a valid multi-block file in every structurally
// interesting way and requires a clean error from the reader — never a
// panic, never silent wrong data — on open or on decode.
func TestVLT2Hostile(t *testing.T) {
	tr := &Trace{Name: "hostile", Target: "ppc", Records: genRecords(500, 11)}
	for _, base := range []struct {
		name string
		opts Writer2Options
	}{
		{"varint", Writer2Options{BlockRecords: 64}},
		{"flate", Writer2Options{Codec: CodecFlate, BlockRecords: 64}},
	} {
		t.Run(base.name, func(t *testing.T) {
			enc := encodeVLT2(tr, base.opts)
			ir, err := NewIndexedReaderBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			idx := append([]indexEnt2(nil), ir.idx...)
			total := ir.total
			if len(idx) < 3 {
				t.Fatalf("want ≥3 blocks, got %d", len(idx))
			}
			flip := func(pos uint64) []byte {
				m := bytes.Clone(enc)
				m[pos] ^= 0x40
				return m
			}
			overlap := append([]indexEnt2(nil), idx...)
			overlap[1] = overlap[0] // entry 1 restates entry 0: overlapping ranges
			gap := append([]indexEnt2(nil), idx...)
			gap[1].off++ // entry 1 skips a byte
			lyingSize := append([]indexEnt2(nil), idx...)
			lyingSize[0].size += lyingSize[1].size // entry 0 swallows entry 1

			// hdr0/hdr1 are the blocks' header lengths. The payload flip
			// aims mid-payload (a flip in a DEFLATE stream's final byte
			// can land in dead padding bits); the anchor flip aims at the
			// byte just before block 1's CRC — the last byte of the
			// firstAddr anchor, which only the header-covering CRC can
			// catch.
			_, hdr0, err := parseBlockHdr(enc[idx[0].off : idx[0].off+idx[0].size])
			if err != nil {
				t.Fatal(err)
			}
			_, hdr1, err := parseBlockHdr(enc[idx[1].off : idx[1].off+idx[1].size])
			if err != nil {
				t.Fatal(err)
			}

			cases := []struct {
				name string
				data []byte
				want error // sentinel the error must unwrap to, if non-nil
			}{
				{"truncated-mid-block", enc[:idx[1].off+idx[1].size/2], nil},
				{"truncated-trailer", enc[:len(enc)-3], nil},
				{"payload-flip", flip(idx[0].off + uint64(hdr0) + (idx[0].size-uint64(hdr0))/2), ErrCorrupt},
				{"header-anchor-flip", flip(idx[1].off + uint64(hdr1) - 5), ErrCorrupt},
				{"footer-off-zero", overwriteFooterOff(enc, 0), ErrCorrupt},
				{"footer-off-into-block", overwriteFooterOff(enc, idx[0].off), nil},
				{"index-overlap", rebuiltFooter(enc, ir, overlap, total), ErrCorrupt},
				{"index-gap", rebuiltFooter(enc, ir, gap, total), ErrCorrupt},
				{"index-lying-size", rebuiltFooter(enc, ir, lyingSize, total), ErrCorrupt},
				{"footer-lying-total", rebuiltFooter(enc, ir, idx, total+1), ErrCorrupt},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					d, err := NewIndexedReaderBytes(tc.data)
					if err == nil {
						if _, err = decodeAllVLT2(d); err == nil {
							t.Fatal("reader accepted hostile input")
						}
					}
					if tc.want != nil && !errors.Is(err, tc.want) {
						t.Fatalf("error %v does not unwrap to %v", err, tc.want)
					}
				})
			}

			// A block whose codec byte names a retired fixed-width codec
			// must fail as corrupt, with the codec named.
			for _, c := range retiredCodecs {
				name := removedCodecs[c]
				t.Run("codec-"+name, func(t *testing.T) {
					ir, err := NewIndexedReaderBytes(setCodecByte(enc, idx[1].off, c))
					if err != nil {
						t.Fatal(err)
					}
					_, err = decodeAllVLT2(ir)
					if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "("+name+")") {
						t.Fatalf("error %v, want ErrCorrupt naming %q", err, name)
					}
				})
			}
		})
	}
}

func appendUint32LE(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUint64LE(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// overwriteFooterOff rewrites the trailer's footer offset in place.
func overwriteFooterOff(enc []byte, off uint64) []byte {
	m := bytes.Clone(enc)
	tail := m[len(m)-trailerLen2:]
	for i := 0; i < 8; i++ {
		tail[i] = byte(off >> (8 * i))
	}
	return m
}
