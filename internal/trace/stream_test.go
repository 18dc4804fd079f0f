package trace

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
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

// TestHeaderStringCap pins the header-string allocation cap: a header
// declaring a name or target longer than MaxHeaderString is rejected with
// ErrStringTooLong before anything is allocated, a string of exactly
// MaxHeaderString is accepted, and the writer never emits an over-cap
// header.
func TestHeaderStringCap(t *testing.T) {
	oversize := func(declared uint64) []byte {
		return binary.AppendUvarint(append([]byte(magic2), version2), declared)
	}
	t.Run("name over cap", func(t *testing.T) {
		_, err := NewIndexedReaderBytes(oversize(MaxHeaderString + 1))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("open = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("target over cap", func(t *testing.T) {
		b := binary.AppendUvarint(append([]byte(magic2), version2, 1, 'n'), MaxHeaderString+1)
		_, err := NewIndexedReaderBytes(b)
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("open = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("absurd length, tiny input", func(t *testing.T) {
		// A 1<<60 declared length with no bytes behind it must fail on the
		// length check, not attempt the allocation and fail on ReadFull.
		_, err := NewIndexedReaderBytes(oversize(1 << 60))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("open = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("read path too", func(t *testing.T) {
		// The same check on the file path OpenFile takes.
		path := filepath.Join(t.TempDir(), "long.vlt2")
		if err := os.WriteFile(path, oversize(MaxHeaderString+1), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := OpenFile(f); !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("OpenFile = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("exactly at cap accepted", func(t *testing.T) {
		name := strings.Repeat("n", MaxHeaderString)
		got, err := decodeVLT2(encodeVLT2(&Trace{Name: name, Target: "ppc"}, Writer2Options{}))
		if err != nil {
			t.Fatalf("open rejected a %d-byte name: %v", MaxHeaderString, err)
		}
		if got.Name != name {
			t.Fatal("cap-length name did not round-trip")
		}
	})
	t.Run("writer rejects over cap", func(t *testing.T) {
		// A name or target the reader would reject fails before a single
		// byte is written.
		long := strings.Repeat("n", MaxHeaderString+1)
		for _, tr := range []*Trace{{Name: long, Target: "ppc"}, {Name: "x", Target: long}} {
			var buf strings.Builder
			err := Write2(&buf, tr, Writer2Options{})
			if !errors.Is(err, ErrStringTooLong) {
				t.Fatalf("Write2 with a %d/%d-byte name/target = %v, want ErrStringTooLong",
					len(tr.Name), len(tr.Target), err)
			}
			if buf.Len() != 0 {
				t.Fatalf("Write2 wrote %d bytes before failing", buf.Len())
			}
		}
	})
}

// TestOpenRejectsVLT1 pins the retired format's clean failure: a file with
// the VLT1 magic fails on open with an error that wraps ErrBadMagic, names
// the format and the tool that regenerates it, and never panics however
// little follows the magic.
func TestOpenRejectsVLT1(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"magic only", []byte("VLT1")},
		{"header", []byte("VLT1\x04grep\x03ppc\x00")},
		{"header and records", append([]byte("VLT1\x01x\x01y\x02"), make([]byte, 64)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewIndexedReaderBytes(tc.data)
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("open = %v, want ErrBadMagic", err)
			}
			for _, want := range []string{"VLT1", "no longer read", "tracegen"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
	if _, err := NewIndexedReaderBytes([]byte("VLT0")); !errors.Is(err, ErrBadMagic) || strings.Contains(err.Error(), "VLT1") {
		t.Fatalf("unknown magic: error %v, want the plain ErrBadMagic", err)
	}
}

// TestReaderNextAllocFree is the decode-side allocation-regression gate:
// the reader's per-record Next must not allocate. A regression here
// silently re-introduces GC pressure proportional to trace length, which is
// exactly what the streaming layer exists to avoid.
func TestReaderNextAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 8192
	ir, err := NewIndexedReaderBytes(encodeVLT2(genTrace(n), Writer2Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // warm up
		if _, err := ir.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(4096, func() {
		if _, err := ir.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("IndexedReader.Next allocates %.2f objects/record, want 0", avg)
	}
}
