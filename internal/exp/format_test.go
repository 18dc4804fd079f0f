package exp

import (
	"bytes"
	"reflect"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// formatEncodings is the encoding matrix for the differential gate: both
// VLT2 codecs, and one deliberately awkward block size so records straddle
// block boundaries in odd places.
var formatEncodings = []struct {
	name string
	enc  func(tr *trace.Trace) ([]byte, error)
}{
	{"vlt2-raw", vlt2Enc(trace.Writer2Options{})},
	{"vlt2-flate", vlt2Enc(trace.Writer2Options{Codec: trace.CodecFlate})},
	{"vlt2-odd-blocks", vlt2Enc(trace.Writer2Options{BlockRecords: 61})},
}

func vlt2Enc(opts trace.Writer2Options) func(tr *trace.Trace) ([]byte, error) {
	return func(tr *trace.Trace) ([]byte, error) {
		var buf bytes.Buffer
		err := trace.Write2(&buf, tr, opts)
		return buf.Bytes(), err
	}
}

// decode materializes enc through the trace reader.
func decode(t *testing.T, enc []byte) *trace.Trace {
	t.Helper()
	d, err := trace.NewIndexedReaderBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFormatDifferential is the file-format differential gate: for every
// suite workload and every encoding in the matrix, the decoded records and
// metadata must be byte-identical to the in-memory trace, the annotation
// computed from the decoded records must match the in-memory annotation,
// and all three machine models must produce identical stats no matter
// which encoding fed them. The 620/620+ legs consume the PPC-target trace
// and the 21164 leg the AXP-target trace, mirroring the paper's pairing.
func TestFormatDifferential(t *testing.T) {
	mem := NewSuiteParallel(1, 1)
	cfg := lvp.Simple
	for _, b := range streamDiffBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			wantPPC, err := mem.Trace(b.Name, prog.PPC)
			if err != nil {
				t.Fatal(err)
			}
			wantAXP, err := mem.Trace(b.Name, prog.AXP)
			if err != nil {
				t.Fatal(err)
			}
			wantAnn, _, err := mem.Annotation(b.Name, prog.PPC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			annAXP, _, err := mem.Annotation(b.Name, prog.AXP, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want620 := ppc620.Simulate(wantPPC, wantAnn, ppc620.Config620(), cfg.Name)
			want620p := ppc620.Simulate(wantPPC, wantAnn, ppc620.Config620Plus(), cfg.Name)
			want164 := axp21164.Simulate(wantAXP, annAXP, axp21164.Config21164(), cfg.Name)

			for _, f := range formatEncodings {
				f := f
				t.Run(f.name, func(t *testing.T) {
					encPPC, err := f.enc(wantPPC)
					if err != nil {
						t.Fatal(err)
					}
					encAXP, err := f.enc(wantAXP)
					if err != nil {
						t.Fatal(err)
					}
					gotPPC := decode(t, encPPC)
					if gotPPC.Name != wantPPC.Name || gotPPC.Target != wantPPC.Target {
						t.Fatalf("metadata differs: got %q/%q want %q/%q",
							gotPPC.Name, gotPPC.Target, wantPPC.Name, wantPPC.Target)
					}
					if !reflect.DeepEqual(gotPPC.Records, wantPPC.Records) {
						t.Fatal("decoded records differ")
					}
					gotAXP := decode(t, encAXP)
					if !reflect.DeepEqual(gotAXP.Records, wantAXP.Records) {
						t.Fatal("decoded AXP records differ")
					}

					// Annotation from the decoded records must be
					// byte-identical to the in-memory annotation.
					gotAnn, _, err := lvp.Annotate(gotPPC, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotAnn, wantAnn) {
						t.Fatal("annotation from decoded trace differs")
					}

					// All three machine models, fed from the decoded
					// traces, must report identical stats.
					if got := ppc620.Simulate(gotPPC, gotAnn, ppc620.Config620(), cfg.Name); !reflect.DeepEqual(got, want620) {
						t.Fatalf("620 stats differ:\n mem  %+v\n file %+v", want620, got)
					}
					if got := ppc620.Simulate(gotPPC, gotAnn, ppc620.Config620Plus(), cfg.Name); !reflect.DeepEqual(got, want620p) {
						t.Fatalf("620+ stats differ:\n mem  %+v\n file %+v", want620p, got)
					}
					gotAnnAXP, _, err := lvp.Annotate(gotAXP, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := axp21164.Simulate(gotAXP, gotAnnAXP, axp21164.Config21164(), cfg.Name); !reflect.DeepEqual(got, want164) {
						t.Fatalf("21164 stats differ:\n mem  %+v\n file %+v", want164, got)
					}
				})
			}
		})
	}
}
