// Command lvpdump disassembles a built benchmark (or an assembled .s file):
// the code listing with labels resolved, plus the data-symbol map. A
// debugging aid for workload authors. With -trace it instead dumps the
// records of a VLT2 trace file through the streaming reader, so arbitrarily
// large traces dump in O(1) memory; -seek jumps straight to record N
// through the block index instead of decoding up to it.
//
// Usage:
//
//	lvpdump -bench grep -target ppc | less
//	lvpdump -asm prog.s
//	lvpdump -trace grep.ppc.vlt2 | head
//	lvpdump -trace grep.ppc.vlt2 -seek 1000000 -n 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lvp/internal/asm"
	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/version"
)

func main() {
	var (
		benchName   = flag.String("bench", "", "benchmark to dump")
		asmFile     = flag.String("asm", "", "assembly file to dump instead")
		traceFile   = flag.String("trace", "", "VLT2 trace file to dump records from (streaming)")
		seek        = flag.Uint64("seek", 0, "start dumping at this record (via the block index)")
		count       = flag.Int64("n", -1, "dump at most this many records (-1 = all)")
		target      = flag.String("target", "ppc", "codegen target: ppc or axp")
		scale       = flag.Int("scale", 1, "benchmark scale")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpdump"))
		return
	}

	if *traceFile != "" {
		if err := dumpTrace(*traceFile, *seek, *count); err != nil {
			fatal(err)
		}
		return
	}

	tg, err := prog.TargetByName(*target)
	if err != nil {
		fatal(err)
	}
	var p *prog.Program
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		if p, err = asm.Assemble(*asmFile, string(src), tg); err != nil {
			fatal(err)
		}
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
		if p, err = b.Build(tg, *scale); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "lvpdump: need -bench or -asm")
		os.Exit(2)
	}

	// Invert the label map for listing.
	labelsAt := map[uint64][]string{}
	for name, pc := range p.Funcs {
		labelsAt[pc] = append(labelsAt[pc], name)
	}
	for _, names := range labelsAt {
		sort.Strings(names)
	}

	fmt.Printf("; program %s (%s target), %d instructions, %d data bytes\n\n",
		p.Name, p.Target.Name, len(p.Code), dataSize(p))
	for i, in := range p.Code {
		pc := prog.CodeBase + uint64(i)*isa.InstBytes
		for _, l := range labelsAt[pc] {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %06x:  %s\n", pc, in.String())
	}

	fmt.Printf("\n; data symbols\n")
	type sym struct {
		name string
		addr uint64
	}
	var syms []sym
	for name, addr := range p.Symbols {
		syms = append(syms, sym{name, addr})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	for _, s := range syms {
		fmt.Printf("  %06x  %s\n", s.addr, s.name)
	}
}

// dumpTrace streams the records of a trace file to stdout, one line per
// record, without materializing the trace. seek skips to that record first
// through the block index, and n bounds how many records print (-1 = to the
// end).
func dumpTrace(path string, seek uint64, n int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := trace.OpenFile(f)
	if err != nil {
		return err
	}
	defer sr.Close()
	fmt.Printf("; trace %s/%s, %d records\n", sr.Name(), sr.Target(), sr.Count())
	if err := sr.SeekRecord(seek); err != nil {
		return err
	}
	for i := int64(0); n < 0 || i < n; i++ {
		r, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("%10d  %06x  %-28s", uint64(i)+seek, r.PC, r.Inst().String())
		switch {
		case r.IsLoad():
			fmt.Printf("  addr=%#x val=%#x", r.Addr, r.Value)
		case r.IsStore():
			fmt.Printf("  addr=%#x val=%#x", r.Addr, r.Value)
		case r.IsBranch():
			fmt.Printf("  taken=%t targ=%06x", r.Taken, r.Targ)
		}
		fmt.Println()
	}
	return nil
}

func dataSize(p *prog.Program) int {
	n := 0
	for _, seg := range p.Data {
		n += len(seg)
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvpdump:", err)
	os.Exit(1)
}
