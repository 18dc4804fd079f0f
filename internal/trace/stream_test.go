package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"lvp/internal/isa"
)

// genTrace builds a deterministic synthetic trace of n records cycling
// through every record shape the codec distinguishes (ALU with/without
// result value, load, store, branch), with pseudo-random addresses and
// values from a fixed-seed LCG. Only canonical field combinations are
// produced (no Size on non-memory records, no Targ on non-branches), so
// decode(encode(r)) == r for every record.
func genTrace(n int) *Trace {
	t := &Trace{Name: "gen", Target: "ppc"}
	t.Records = make([]Record, 0, n)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		var r Record
		switch i % 5 {
		case 0:
			r = Record{PC: pc, Op: isa.ADDI, Rd: 3, Ra: 1, Imm: int64(i % 1000), Value: rnd()}
		case 1:
			cls := isa.LoadIntData
			if i%2 == 0 {
				cls = isa.LoadDataAddr
			}
			r = Record{PC: pc, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8,
				Addr: 0x2000 + rnd()%4096*8, Value: rnd(), Size: 8, Class: cls}
		case 2:
			r = Record{PC: pc, Op: isa.SD, Ra: 3, Rb: 4, Imm: 16,
				Addr: 0x4000 + rnd()%4096*8, Value: rnd(), Size: 8}
		case 3:
			taken := i%2 == 1
			targ := pc + 4
			if taken {
				targ = pc - 16*4
			}
			r = Record{PC: pc, Op: isa.BEQ, Ra: 4, Imm: -64, Taken: taken, Targ: targ}
			pc = targ - 4
		case 4:
			r = Record{PC: pc, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4, Value: rnd() & 0xffff}
		}
		t.Records = append(t.Records, r)
		pc += 4
	}
	return t
}

// padCount encodes t as VLT1 with the record count stored as a maximally
// padded 10-byte uvarint (continuation bit set on the first nine bytes) —
// the header layout older streaming writers left behind when they
// backpatched the count at Close. No writer emits it, but readers must
// keep accepting such files.
func padCount(t *Trace) []byte {
	minimal := encodeTrace(t)
	hdr := len(magic) +
		uvarintLen(uint64(len(t.Name))) + len(t.Name) +
		uvarintLen(uint64(len(t.Target))) + len(t.Target)
	out := bytes.Clone(minimal[:hdr])
	v := uint64(len(t.Records))
	for i := 0; i < 9; i++ {
		out = append(out, byte(v&0x7f)|0x80)
		v >>= 7
	}
	out = append(out, byte(v))
	return append(out, minimal[hdr+uvarintLen(uint64(len(t.Records))):]...)
}

// decodeStream drains a Reader into a Trace, the long way around, so tests
// compare the streaming path against Read explicitly.
func decodeStream(tb testing.TB, data []byte) (*Reader, *Trace) {
	tb.Helper()
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatalf("NewReader: %v", err)
	}
	t := &Trace{Name: sr.Name(), Target: sr.Target()}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return sr, t
		}
		if err != nil {
			tb.Fatalf("Next (record %d): %v", len(t.Records), err)
		}
		t.Records = append(t.Records, *rec)
	}
}

// TestReaderMatchesRead pins the tentpole invariant at the decode layer:
// the record-at-a-time Reader yields exactly the records the whole-trace
// Read materializes, for both count encodings.
func TestReaderMatchesRead(t *testing.T) {
	want := genTrace(1000)
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"minimal count", encodeTrace(want)},
		{"padded count", padCount(want)},
	} {
		t.Run(enc.name, func(t *testing.T) {
			ref, err := Read(bytes.NewReader(enc.data))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			sr, got := decodeStream(t, enc.data)
			if got.Name != ref.Name || got.Target != ref.Target {
				t.Fatalf("header: got %q/%q, want %q/%q", got.Name, got.Target, ref.Name, ref.Target)
			}
			if !reflect.DeepEqual(got.Records, ref.Records) {
				t.Fatal("streaming decode differs from Read")
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatal("decode differs from the source records")
			}
			if sr.Decoded() != sr.Count() || sr.Decoded() != uint64(len(want.Records)) {
				t.Fatalf("Decoded()=%d Count()=%d, want %d", sr.Decoded(), sr.Count(), len(want.Records))
			}
			// EOF is sticky.
			for i := 0; i < 3; i++ {
				if _, err := sr.Next(); err != io.EOF {
					t.Fatalf("Next after EOF: %v", err)
				}
			}
		})
	}
}

// TestPaddedEncodingLayout pins that a VLT1 header whose record count is
// the padded 10-byte uvarint decodes exactly like the minimal one: same
// count, same records. Older streaming writers wrote that layout, and their
// files must stay readable. It also pins the layout itself: the padded file
// differs from the minimal one only in the count field.
func TestPaddedEncodingLayout(t *testing.T) {
	tr := genTrace(321)
	minimal := encodeTrace(tr)
	padded := padCount(tr)
	hdr := len(magic) + 1 + len(tr.Name) + 1 + len(tr.Target)
	minCount := uvarintLen(uint64(len(tr.Records)))
	if !bytes.Equal(minimal[:hdr], padded[:hdr]) {
		t.Fatal("headers before the count field differ")
	}
	// 321 = 2<<7 | 0x41: groups 0x41 and 2, seven empty groups, then a
	// zero final byte; all but the final byte carry the continuation bit.
	wantCount := []byte{0xc1, 0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}
	if !bytes.Equal(padded[hdr:hdr+10], wantCount) {
		t.Fatalf("count field % x, want % x", padded[hdr:hdr+10], wantCount)
	}
	if !bytes.Equal(minimal[hdr+minCount:], padded[hdr+10:]) {
		t.Fatal("record streams after the count field differ")
	}
	sr, got := decodeStream(t, padded)
	if sr.Count() != uint64(len(tr.Records)) {
		t.Fatalf("Count() = %d, want %d", sr.Count(), len(tr.Records))
	}
	if got.Name != tr.Name || got.Target != tr.Target || !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatal("padded-count file does not decode to the source trace")
	}
}

// TestHeaderStringCap pins the header-string allocation cap: a header
// declaring a name or target longer than MaxHeaderString is rejected with
// ErrStringTooLong before anything is allocated, while a string of exactly
// MaxHeaderString is accepted.
func TestHeaderStringCap(t *testing.T) {
	oversize := func(declared uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString(magic)
		writeUvarintBuf(&buf, declared)
		return buf.Bytes()
	}
	t.Run("name over cap", func(t *testing.T) {
		_, err := NewReader(bytes.NewReader(oversize(MaxHeaderString + 1)))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("NewReader = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("absurd length, tiny input", func(t *testing.T) {
		// A 1<<60 declared length with no bytes behind it must fail on the
		// length check, not attempt the allocation and fail on ReadFull.
		_, err := NewReader(bytes.NewReader(oversize(1 << 60)))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("NewReader = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("read path too", func(t *testing.T) {
		_, err := Read(bytes.NewReader(oversize(MaxHeaderString + 1)))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("Read = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("exactly at cap accepted", func(t *testing.T) {
		name := strings.Repeat("n", MaxHeaderString)
		tr := &Trace{Name: name, Target: "ppc"}
		got, err := Read(bytes.NewReader(encodeTrace(tr)))
		if err != nil {
			t.Fatalf("Read rejected a %d-byte name: %v", MaxHeaderString, err)
		}
		if got.Name != name {
			t.Fatal("cap-length name did not round-trip")
		}
	})
}

func writeUvarintBuf(buf *bytes.Buffer, v uint64) {
	var tmp [10]byte
	for i := 0; ; i++ {
		if v < 0x80 {
			tmp[i] = byte(v)
			buf.Write(tmp[:i+1])
			return
		}
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
}

// FuzzStreamRoundTrip feeds arbitrary bytes to the record-at-a-time
// Reader. Any trace it fully decodes is re-encoded with the padded 10-byte
// count of older streaming writers and decoded again through the Reader;
// the header and every record must come back unchanged. FuzzRoundTrip
// checks the same canonicality through Read and the minimal count.
func FuzzStreamRoundTrip(f *testing.F) {
	valid := encodeTrace(fuzzSeedTrace())
	f.Add(valid)
	f.Add(padCount(fuzzSeedTrace()))
	f.Add(encodeTrace(&Trace{Name: "empty", Target: "axp"}))
	f.Add(padCount(genTrace(17)))
	f.Add([]byte{})
	f.Add([]byte("VLT0"))
	f.Add([]byte("VLT1"))
	f.Add(valid[:len(valid)-3])
	f.Add(append([]byte("VLT1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append(bytes.Clone(valid), 0xAA))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr := &Trace{Name: sr.Name(), Target: sr.Target()}
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // malformed record rejected; that is the contract
			}
			tr.Records = append(tr.Records, *rec)
		}
		sr2, got := decodeStream(t, padCount(tr))
		if sr2.Count() != uint64(len(tr.Records)) {
			t.Fatalf("padded Count() = %d, want %d", sr2.Count(), len(tr.Records))
		}
		if got.Name != tr.Name || got.Target != tr.Target {
			t.Fatalf("header drift: %q/%q -> %q/%q", tr.Name, tr.Target, got.Name, got.Target)
		}
		if len(got.Records) != len(tr.Records) {
			t.Fatalf("record count drift: %d -> %d", len(tr.Records), len(got.Records))
		}
		for i := range tr.Records {
			if !reflect.DeepEqual(tr.Records[i], got.Records[i]) {
				t.Fatalf("record %d drift:\n got %+v\nwant %+v", i, got.Records[i], tr.Records[i])
			}
		}
	})
}

// TestReaderNextAllocFree is the decode-side allocation-regression gate:
// after construction, Reader.Next must not allocate per record. A
// regression here silently re-introduces GC pressure proportional to trace
// length, which is exactly what the streaming layer exists to avoid.
func TestReaderNextAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 8192
	data := encodeTrace(genTrace(n))
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm up
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(4096, func() {
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Reader.Next allocates %.2f objects/record, want 0", avg)
	}
}

// BenchmarkStreamDecode measures the record-at-a-time decode hot path;
// BenchmarkMemDecode is the whole-trace Read baseline on the same bytes.
func BenchmarkStreamDecode(b *testing.B) {
	data := encodeTrace(genTrace(1 << 16))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMemDecode(b *testing.B) {
	data := encodeTrace(genTrace(1 << 16))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
