package lvp

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"lvp/internal/trace"
)

// pipeDrainNext pulls a Pipe record-at-a-time, materializing everything.
func pipeDrainNext(t *testing.T, p *Pipe) ([]trace.Record, trace.Annotation) {
	t.Helper()
	var recs []trace.Record
	var ann trace.Annotation
	for {
		r, st, err := p.Next()
		if err == io.EOF {
			return recs, ann
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, *r)
		ann = append(ann, st)
	}
}

// pipeDrainBatch pulls a Pipe via NextBatch with the given buffer size.
func pipeDrainBatch(t *testing.T, p *Pipe, bufSize int) ([]trace.Record, trace.Annotation) {
	t.Helper()
	recs := make([]trace.Record, 0, bufSize)
	var ann trace.Annotation
	buf := make([]trace.Record, bufSize)
	states := make([]trace.PredState, bufSize)
	for {
		n, err := p.NextBatch(buf, states)
		recs = append(recs, buf[:n]...)
		ann = append(ann, states[:n]...)
		if err == io.EOF {
			return recs, ann
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipeNextBatchMatchesNext is the annotation-layer batch differential:
// for every paper configuration, NextBatch over both the in-memory slice
// source and the trace-file reader must produce exactly the records, states
// and unit statistics of the record-at-a-time Pipe.
func TestPipeNextBatchMatchesNext(t *testing.T) {
	tr := mixedTrace(4096)
	var enc bytes.Buffer
	if err := trace.Write2(&enc, tr, trace.Writer2Options{BlockRecords: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Configs {
		t.Run(cfg.Name, func(t *testing.T) {
			ref, err := NewPipe(tr.Stream(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantRecs, wantAnn := pipeDrainNext(t, ref)
			wantStats := ref.Stats()

			for _, bufSize := range []int{1, 7, 256} {
				// In-memory slice source underneath.
				p1, err := NewPipe(tr.Stream(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				recs, ann := pipeDrainBatch(t, p1, bufSize)
				if !reflect.DeepEqual(recs, wantRecs) || !reflect.DeepEqual(ann, wantAnn) {
					t.Fatalf("bufSize %d (slice src): batched pipe diverged", bufSize)
				}
				if p1.Stats() != wantStats {
					t.Fatalf("bufSize %d (slice src): stats diverged", bufSize)
				}

				// Trace-file reader underneath.
				rd, err := trace.NewIndexedReaderBytes(enc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				p2, err := NewPipe(rd, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				recs, ann = pipeDrainBatch(t, p2, bufSize)
				if !reflect.DeepEqual(recs, wantRecs) || !reflect.DeepEqual(ann, wantAnn) {
					t.Fatalf("bufSize %d (reader src): batched pipe diverged", bufSize)
				}
				if p2.Stats() != wantStats {
					t.Fatalf("bufSize %d (reader src): stats diverged", bufSize)
				}
			}
		})
	}
}

// TestRecordBatchMatchesRecord pins Annotator.RecordBatch against the
// per-record form on the same unit configuration.
func TestRecordBatchMatchesRecord(t *testing.T) {
	tr := mixedTrace(2048)
	for _, cfg := range Configs {
		a1, err := NewAnnotator(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := NewAnnotator(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		states := make([]trace.PredState, len(tr.Records))
		a2.RecordBatch(tr.Records, states)
		for i := range tr.Records {
			if want := a1.Record(&tr.Records[i]); states[i] != want {
				t.Fatalf("cfg %s record %d: batch %v, per-record %v",
					cfg.Name, i, states[i], want)
			}
		}
		if s1, s2 := a1.Stats(), a2.Stats(); s1 != s2 {
			t.Fatalf("cfg %s: stats diverged:\n record %+v\n batch  %+v", cfg.Name, s1, s2)
		}
	}
}

// TestPipeNextBatchAllocFree pins the fused batched gen→annotate hop at
// zero allocations per batch in steady state.
func TestPipeNextBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := mixedTrace(1 << 20)
	p, err := NewPipe(tr.Stream(), Simple, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Record, 256)
	states := make([]trace.PredState, 256)
	// Warm-up.
	for i := 0; i < 64; i++ {
		if _, err := p.NextBatch(buf, states); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := p.NextBatch(buf, states); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Pipe.NextBatch allocates %v allocs/batch, want 0", avg)
	}
}

// BenchmarkAnnotatorRecordBatch measures the batched annotation hot path;
// its per-record baseline is BenchmarkAnnotatorRecord in stream_test.go.
func BenchmarkAnnotatorRecordBatch(b *testing.B) {
	tr := mixedTrace(1 << 16)
	a, err := NewAnnotator(Simple, nil)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]trace.PredState, len(tr.Records))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecordBatch(tr.Records, states)
	}
	b.SetBytes(int64(len(tr.Records)))
}
