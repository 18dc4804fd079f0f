package trace

import (
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// propEncodings is the encoding matrix the seek property test runs over:
// both payload codecs, block sizes that do and do not divide the record
// count.
var propEncodings = []struct {
	name string
	opts Writer2Options
}{
	{"varint", Writer2Options{BlockRecords: 128}},
	{"varint-odd", Writer2Options{BlockRecords: 61}},
	{"flate", Writer2Options{Codec: CodecFlate, BlockRecords: 128}},
}

// TestVLT2SeekProperty drives random SeekRecord positions and checks that
// what follows each seek is exactly the sequential suffix starting there:
// O(1) seek must be observationally equivalent to decode-and-discard.
func TestVLT2SeekProperty(t *testing.T) {
	want := genRecords(5000, 23)
	tr := &Trace{Name: "seek", Target: "ppc", Records: want}
	for _, e := range propEncodings {
		t.Run(e.name, func(t *testing.T) {
			enc := encodeVLT2(tr, e.opts)
			ir, err := NewIndexedReaderBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(enc))))
			buf := make([]Record, 300)
			for trial := 0; trial < 40; trial++ {
				n := uint64(rng.Intn(len(want) + 1))
				if err := ir.SeekRecord(n); err != nil {
					t.Fatalf("seek %d: %v", n, err)
				}
				// Read a bounded window, not the whole suffix, so the
				// test stays O(trials × window) instead of O(trials × n).
				window := rng.Intn(700) + 1
				var got []Record
				for len(got) < window {
					k, err := ir.NextBatch(buf[:min(window-len(got), len(buf))])
					got = append(got, buf[:k]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("after seek %d: %v", n, err)
					}
				}
				wantWin := want[n:min(int(n)+window, len(want))]
				if len(got) != len(wantWin) || (len(got) > 0 && !reflect.DeepEqual(got, wantWin)) {
					t.Fatalf("seek %d window %d: records differ", n, window)
				}
			}
			// Seeking beyond the end must fail cleanly; seeking to the
			// exact end must yield io.EOF.
			if err := ir.SeekRecord(uint64(len(want)) + 1); err == nil {
				t.Fatal("seek beyond count succeeded")
			}
			if err := ir.SeekRecord(uint64(len(want))); err != nil {
				t.Fatal(err)
			}
			if _, err := ir.NextBatch(buf); err != io.EOF {
				t.Fatalf("read at end: want io.EOF, got %v", err)
			}
		})
	}
}

// TestVLT2IndexedNextBatchAllocFree pins the indexed batch path — VLT2's
// hot decode loop on the default raw codec — at zero allocations per batch
// at steady state.
func TestVLT2IndexedNextBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := &Trace{Name: "alloc", Target: "ppc", Records: genRecords(200_000, 41)}
	t.Run("varint", func(t *testing.T) {
		ir, err := NewIndexedReaderBytes(encodeVLT2(tr, Writer2Options{}))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Record, 256)
		avg := testing.AllocsPerRun(500, func() {
			if _, err := ir.NextBatch(buf); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("IndexedReader.NextBatch allocates %v allocs/batch, want 0", avg)
		}
	})
}

// TestVLT2WriterAllocFree pins the encode loop: after warmup, WriteRecord
// must not allocate except when a block flushes (the flush reuses buffers
// too, so even flush boundaries stay at zero amortized).
func TestVLT2WriterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	recs := genRecords(4096, 43)
	w, err := NewWriter2Opts(io.Discard, "alloc", "ppc", Writer2Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up one full block so payload and header buffers reach size.
	for i := range recs {
		if err := w.WriteRecord(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(20_000, func() {
		if err := w.WriteRecord(&recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Writer2.WriteRecord allocates %v allocs/record, want 0", avg)
	}
}
