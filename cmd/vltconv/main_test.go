package main

import (
	"bytes"
	"errors"
	"fmt"
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

// writeFile encodes tr into a new VLT2 file at path.
func writeFile(t *testing.T, path string, tr *trace.Trace, opts trace.Writer2Options) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write2(&buf, tr, opts); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFile decodes the trace file at path.
func readFile(t *testing.T, path string) *trace.Trace {
	t.Helper()
	d, done, err := openTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	got, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestConvertFlateToRaw converts a flate file with an odd block size into
// raw files with other odd block sizes and checks each output holds the
// identical header and records.
func TestConvertFlateToRaw(t *testing.T) {
	want := quickTrace(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "quick.flate.vlt2")
	writeFile(t, in, want, trace.Writer2Options{Codec: trace.CodecFlate, BlockRecords: 61})
	for _, blocks := range []int{7, 1021} {
		t.Run(fmt.Sprintf("blocks-%d", blocks), func(t *testing.T) {
			out := filepath.Join(dir, fmt.Sprintf("quick.raw%d.vlt2", blocks))
			n, err := convert(in, out, trace.Writer2Options{BlockRecords: blocks})
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(want.Records)) {
				t.Fatalf("convert reported %d records, want %d", n, len(want.Records))
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

// TestConvertRejectsVLT1 pins that a file in the retired VLT1 format fails
// with ErrBadMagic before any output is created.
func TestConvertRejectsVLT1(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "old.vlt")
	if err := os.WriteFile(in, []byte("VLT1\x01x\x01y\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "new.vlt2")
	if _, err := convert(in, out, trace.Writer2Options{}); !errors.Is(err, trace.ErrBadMagic) {
		t.Fatalf("convert = %v, want ErrBadMagic", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("output exists after a rejected input (stat: %v)", err)
	}
}

// TestConvertRejectsInPlace pins that converting a file onto itself — by
// the same path or through a hard link — fails before the output is
// created, leaving the input byte-identical. Creating the output first
// would truncate the input mid-read.
func TestConvertRejectsInPlace(t *testing.T) {
	tr := quickTrace(t)
	dir := t.TempDir()
	t.Run("vlt2", func(t *testing.T) {
		in := filepath.Join(dir, "in.vlt2")
		writeFile(t, in, tr, trace.Writer2Options{})
		orig, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		link := filepath.Join(dir, "link.vlt2")
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
