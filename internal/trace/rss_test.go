package trace

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// streamRSSRecords is sized so the in-memory equivalent would dominate the
// bound: 10M records at ~72 bytes each is ~720 MB materialized, while the
// streaming pipeline below must stay under streamRSSBoundMB.
const (
	streamRSSRecords = 10_000_000
	streamRSSBoundMB = 256
)

// vmHWMKB reads the process peak resident set (VmHWM) from
// /proc/self/status, in kilobytes.
func vmHWMKB(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("cannot read /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			break
		}
		return kb
	}
	t.Skip("no VmHWM line in /proc/self/status")
	return 0
}

// TestStreamRSS is the bounded-memory gate for the streaming trace path: a
// synthetic 10M-record trace is encoded by Writer2 into a temporary file and
// decoded by the IndexedReader through a plain io.ReaderAt, and the process
// peak RSS must stay far below what materializing the trace would cost. The
// ReadAt path keeps the file out of the address space (mapped pages would
// count as resident), so a regression that buffers the stream anywhere
// (writer, reader, or an accumulator that grows per record) trips the
// bound.
func TestStreamRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-record stream; skipped in -short")
	}
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is read from /proc; linux only")
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "rss.vlt2"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw, err := NewWriter2Opts(f, "rss", "ppc", Writer2Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := genTrace(64).Records
	for i := 0; i < streamRSSRecords; i++ {
		rec := seed[i%len(seed)]
		rec.PC = uint64(0x1000 + 4*i)
		if err := sw.WriteRecord(&rec); err != nil {
			t.Fatalf("WriteRecord %d: %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}

	// Hiding *os.File behind a bare io.ReaderAt selects the ReadAt path.
	sr, err := NewIndexedReader(struct{ io.ReaderAt }{f}, st.Size())
	if err != nil {
		t.Fatalf("NewIndexedReader: %v", err)
	}
	z := NewSummarizer(sr.Name(), sr.Target())
	n := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next (record %d): %v", n, err)
		}
		z.Add(rec)
		n++
	}
	if n != streamRSSRecords || sr.Count() != streamRSSRecords {
		t.Fatalf("decoded %d records (index count %d), want %d", n, sr.Count(), streamRSSRecords)
	}
	if got := z.Summary().Instructions; got != streamRSSRecords {
		t.Fatalf("summarizer saw %d instructions, want %d", got, streamRSSRecords)
	}

	hwmKB := vmHWMKB(t)
	if hwmKB > streamRSSBoundMB*1024 {
		t.Fatalf("peak RSS %d MB while streaming %d records; bound is %d MB — "+
			"the pipeline is buffering somewhere",
			hwmKB/1024, streamRSSRecords, streamRSSBoundMB)
	}
	t.Logf("streamed %d records, peak RSS %d MB (bound %d MB)",
		n, hwmKB/1024, streamRSSBoundMB)
}
