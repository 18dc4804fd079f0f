package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// quickTrace runs the quick benchmark and returns its in-memory trace.
func quickTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b, err := bench.ByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(prog.PPC, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := vm.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeFile encodes tr into a new file at path with enc.
func writeFile(t *testing.T, path string, tr *trace.Trace, enc func(io.Writer, *trace.Trace) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFile decodes the trace file at path, whatever its format.
func readFile(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.OpenFile(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := d.(io.Closer); ok {
		c.Close()
	}
	return got
}

// TestConvertVLT1ToVLT2 converts a VLT1 file and checks the output is VLT2
// holding the identical header and records, under both codecs.
func TestConvertVLT1ToVLT2(t *testing.T) {
	want := quickTrace(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "quick.vlt")
	writeFile(t, in, want, trace.Write)
	for _, codec := range []trace.BlockCodec{trace.CodecRaw, trace.CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			out := filepath.Join(dir, "quick."+codec.String()+".vlt2")
			n, err := convert(in, out, trace.Writer2Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(want.Records)) {
				t.Fatalf("convert reported %d records, want %d", n, len(want.Records))
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("VLT2")) {
				t.Fatalf("output starts %q, want VLT2 magic", data[:min(4, len(data))])
			}
			got := readFile(t, out)
			if got.Name != want.Name || got.Target != want.Target || !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatal("converted records differ from the source trace")
			}
			if err := verifyEqual(in, out); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConvertRejectsInPlace pins that converting a file onto itself — by
// the same path or through a hard link — fails before the output is
// created, leaving the input byte-identical. Creating the output first
// would truncate the input mid-read.
func TestConvertRejectsInPlace(t *testing.T) {
	tr := quickTrace(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		enc  func(io.Writer, *trace.Trace) error
	}{
		{"vlt1", trace.Write},
		{"vlt2", func(w io.Writer, tr *trace.Trace) error { return trace.Write2(w, tr, trace.Writer2Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := filepath.Join(dir, "in."+tc.name)
			writeFile(t, in, tr, tc.enc)
			orig, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			link := filepath.Join(dir, "link."+tc.name)
			if err := os.Link(in, link); err != nil {
				t.Fatal(err)
			}
			for _, out := range []string{in, link} {
				if _, err := convert(in, out, trace.Writer2Options{}); err == nil {
					t.Fatalf("convert %s -o %s succeeded, want an error", in, out)
				}
				after, err := os.ReadFile(in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, orig) {
					t.Fatalf("convert -o %s changed the input (%d → %d bytes)", out, len(orig), len(after))
				}
			}
		})
	}
}
