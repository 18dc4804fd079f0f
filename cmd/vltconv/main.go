// Command vltconv rewrites a VLT2 trace file with another block codec or
// block size, streaming record by record so traces of any size convert in
// bounded memory. -verify re-reads both files afterwards and checks
// record-for-record equality. The output must be a different file from the
// input. A VLT1 input is rejected; regenerate it as VLT2 with tracegen.
//
// Usage:
//
//	vltconv -codec flate -o grep.small.vlt2 grep.ppc.vlt2    # recompress
//	vltconv -verify -block-records 1024 -o g.vlt2 grep.small.vlt2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lvp/internal/trace"
	"lvp/internal/version"
)

func main() {
	var (
		out         = flag.String("o", "", "output file (required)")
		codecName   = flag.String("codec", "raw", "block codec: raw or flate")
		blockRecs   = flag.Int("block-records", 0, "records per block (0 = default)")
		verify      = flag.Bool("verify", false, "re-read input and output and verify record equality")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("vltconv"))
		return
	}
	if flag.NArg() != 1 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: vltconv -o <out> [-codec raw|flate] [-block-records n] <in>")
		os.Exit(2)
	}
	in := flag.Arg(0)
	codec, err := trace.BlockCodecByName(*codecName)
	if err != nil {
		fatal(err)
	}

	n, err := convert(in, *out, trace.Writer2Options{Codec: codec, BlockRecords: *blockRecs})
	if err != nil {
		fatal(err)
	}
	inSize, outSize := fileSize(in), fileSize(*out)
	fmt.Printf("wrote %s: %d records, %d → %d bytes (%.1f%%)\n",
		*out, n, inSize, outSize, 100*float64(outSize)/float64(max(inSize, 1)))

	if *verify {
		if err := verifyEqual(in, *out); err != nil {
			fatal(err)
		}
		fmt.Println("verify: records identical")
	}
}

// convert streams every record of in into a new VLT2 file at out, returning
// the record count. It refuses to write over its own input: creating out
// would truncate the file it is still reading.
func convert(in, out string, opts trace.Writer2Options) (uint64, error) {
	inInfo, err := os.Stat(in)
	if err != nil {
		return 0, err
	}
	if outInfo, err := os.Stat(out); err == nil && os.SameFile(inInfo, outInfo) {
		return 0, fmt.Errorf("output %s is the input file; write to a different path", out)
	}
	src, done, err := openTrace(in)
	if err != nil {
		return 0, err
	}
	defer done()
	fo, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	enc, err := trace.NewWriter2Opts(fo, src.Name(), src.Target(), opts)
	if err != nil {
		fo.Close()
		return 0, err
	}
	buf := make([]trace.Record, 4096)
	for {
		k, err := src.NextBatch(buf)
		for i := 0; i < k; i++ {
			if werr := enc.WriteRecord(&buf[i]); werr != nil {
				fo.Close()
				return 0, werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			fo.Close()
			return 0, err
		}
	}
	if err := enc.Close(); err != nil {
		fo.Close()
		return 0, err
	}
	return enc.Count(), fo.Close()
}

// verifyEqual streams both files in lockstep and reports the first
// divergence.
func verifyEqual(a, b string) error {
	da, closeA, err := openTrace(a)
	if err != nil {
		return err
	}
	defer closeA()
	db, closeB, err := openTrace(b)
	if err != nil {
		return err
	}
	defer closeB()
	var n uint64
	for {
		ra, ea := da.Next()
		rb, eb := db.Next()
		if ea == io.EOF || eb == io.EOF {
			if ea != eb {
				return fmt.Errorf("verify: record counts differ at %d (%v vs %v)", n, ea, eb)
			}
			return nil
		}
		if ea != nil {
			return ea
		}
		if eb != nil {
			return eb
		}
		if *ra != *rb {
			return fmt.Errorf("verify: record %d differs:\n  %s: %+v\n  %s: %+v", n, a, *ra, b, *rb)
		}
		n++
	}
}

// openTrace opens the trace file at path; done closes the decoder and then
// the file.
func openTrace(path string) (d trace.Decoder, done func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if d, err = trace.OpenFile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	return d, func() { d.Close(); f.Close() }, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vltconv:", err)
	os.Exit(1)
}
