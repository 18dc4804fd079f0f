package bench

import (
	"lvp/internal/isa"
	"lvp/internal/prog"
)

func init() {
	register(Benchmark{
		Name:        "grep",
		Description: "substring scan, modelled on gnu-grep -c",
		Input:       "synthetic word text, pattern \"stmo\"",
		Build:       buildGrep,
	})
	register(Benchmark{
		Name:        "gawk",
		Description: "field splitting and accumulation over a result file",
		Input:       "synthetic simulator-output number text",
		Build:       buildGawk,
	})
	register(Benchmark{
		Name:        "compress",
		Description: "LZW-style dictionary compression",
		Input:       "synthetic compressible word text",
		Build:       buildCompress,
	})
	register(Benchmark{
		Name:        "gperf",
		Description: "perfect hash function search over a keyword set",
		Input:       "24 keywords, iterative associated-value adjustment",
		Build:       buildGperf,
	})
}

// grepTextSize is the input size at scale 1.
const grepTextSize = 6144

// GrepPattern is the needle searched by the grep workload (exported for the
// independent cross-check in tests).
const GrepPattern = "stmo"

// grepWords is grep's own vocabulary: as in real searched text, characters
// of the pattern are comparatively rare, so the DFA dwells in state 0 and
// its transition loads are highly value-local.
var grepWords = []string{
	"village", "院落", "crane", "fable", "anchor", "pledge", "drizzle",
	"breeze", "curve", "jungle", "zebra", "velvet", "pickle", "fuzzy",
	"quiche", "lively", "buzz", "badge", "quiver", "fjord", "waltz",
	"stmo", // the needle itself, occasionally
	"affix", "banner", "gulch", "ivy", "dwell", "echo",
}

// grepText regenerates the grep input for a target and scale (for test
// cross-checks).
func grepText(t prog.Target, scale int) []byte {
	r := newRNG(101 + targetSalt(t.Name))
	n := grepTextSize * clampScale(scale)
	out := make([]byte, 0, n+16)
	col := 0
	for len(out) < n {
		w := grepWords[r.intn(len(grepWords))]
		out = append(out, w...)
		col++
		if col%8 == 0 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	return out[:n]
}

// grepDFA builds the substring-matching automaton for GrepPattern: 256
// transition bytes per state. Most characters return to a shallow state, so
// the transition loads are heavily skewed toward a few values — the
// mostly-predictable serial load chain that makes grep data-dependence
// bound (paper §6.1).
func grepDFA() []byte {
	pat := []byte(GrepPattern)
	n := len(pat)
	// next(state, c): longest suffix of (prefix[state] + c) that is a
	// prefix of pat.
	trans := make([]byte, (n+1)*256)
	for s := 0; s <= n; s++ {
		for c := 0; c < 256; c++ {
			if s < n && byte(c) == pat[s] {
				trans[s*256+c] = byte(s + 1)
				continue
			}
			// fall back: longest k<s with pat[:k-?]... simple
			// KMP-style computation over small n.
			k := min(s, n-1)
			for k > 0 {
				// does pat[:k] == (pat[s-k+1:s] + c) hold?
				ok := byte(c) == pat[k-1]
				for j := 0; ok && j < k-1; j++ {
					if pat[j] != pat[s-k+1+j] {
						ok = false
					}
				}
				if ok {
					break
				}
				k--
			}
			trans[s*256+c] = byte(k)
		}
	}
	return trans
}

func buildGrep(t prog.Target, scale int) (*prog.Program, error) {
	scale = clampScale(scale)
	b := prog.New("grep", t)
	text := grepText(t, scale)
	b.Bytes("text", text)
	b.Bytes("pattern", []byte(GrepPattern))
	b.Bytes("dfa", grepDFA())
	b.Zeros("errflag", 8)

	// main: DFA scan, the shape of a real grep hot loop. Each iteration
	// is serially dependent on the state-transition load — the chain the
	// paper identifies as making grep data-dependence bound — and the
	// transition values are heavily skewed toward shallow states, so the
	// LVP unit can collapse the chain. On an accept state the match is
	// confirmed with a call (epilogue RA reloads, pattern loads).
	f := b.Func("main", 0, prog.S0, prog.S1, prog.S2, prog.S3, prog.S4, prog.S5)
	f.MarkPtr(prog.S0, prog.S4)
	b.GotData(prog.S0, "text") // data-address load (glue)
	b.MaterializeInt(prog.S1, int64(len(text)))
	b.GotData(prog.S4, "dfa")
	b.Li(prog.S2, 0) // match count
	b.Li(prog.S3, 0) // position
	b.Li(prog.S5, 0) // DFA state
	// Bottom-tested loop (as an optimising compiler emits): one
	// conditional backward branch per iteration plus the rare accept.
	loop, next, done := b.NewLabel("loop"), b.NewLabel("next"), b.NewLabel("done")
	accept := b.NewLabel("accept")
	b.Branch(isa.BGE, prog.S3, prog.S1, done) // guard for empty input
	b.Label(loop)
	b.Op3(isa.ADD, prog.T0, prog.S0, prog.S3)
	b.Load(isa.LBU, prog.T1, prog.T0, 0, isa.LoadIntData) // text byte (varies)
	b.OpI(isa.SHLI, prog.T2, prog.S5, 8)
	b.Op3(isa.ADD, prog.T2, prog.T2, prog.S4)
	b.Op3(isa.ADD, prog.T2, prog.T2, prog.T1)
	b.Load(isa.LBU, prog.S5, prog.T2, 0, isa.LoadIntData) // transition (skewed, serial)
	b.OpI(isa.SLTI, prog.T3, prog.S5, int64(len(GrepPattern)))
	b.Branch(isa.BEQ, prog.T3, prog.Zero, accept)
	b.Label(next)
	b.OpI(isa.ADDI, prog.S3, prog.S3, 1)
	b.Branch(isa.BLT, prog.S3, prog.S1, loop)
	b.Jump(done)
	b.Label(accept)
	b.OpI(isa.ADDI, prog.A0, prog.S3, int64(1-len(GrepPattern)))
	b.Call("matchAt") // confirm (always succeeds; exercises call idioms)
	b.Op3(isa.ADD, prog.S2, prog.S2, prog.A0)
	b.Li(prog.S5, 0)
	b.Jump(next)
	b.Label(done)
	b.ErrorCheck("errflag", "grepfail") // never taken
	b.Out(prog.S2)
	f.Epilogue()

	b.Label("grepfail")
	b.Li(prog.A0, -1)
	b.Out(prog.A0)
	b.Halt()

	// matchAt(pos): compare pattern[1..3] to text[pos+1..pos+3]. The
	// base pointers are re-fetched through the GOT (glue idiom) and the
	// epilogue restores RA (instruction-address load).
	g := b.Func("matchAt", 0, prog.S0, prog.S1)
	g.MarkPtr(prog.S0, prog.S1)
	b.GotData(prog.S0, "text")
	b.GotData(prog.S1, "pattern")
	b.Op3(isa.ADD, prog.S0, prog.S0, prog.A0) // &text[pos]
	fail, ok := b.NewLabel("fail"), b.NewLabel("ok")
	for i := int64(1); i < int64(len(GrepPattern)); i++ {
		b.Load(isa.LBU, prog.T0, prog.S1, i, isa.LoadIntData) // pattern byte (constant)
		b.Load(isa.LBU, prog.T1, prog.S0, i, isa.LoadIntData) // text byte (varies)
		b.Branch(isa.BNE, prog.T0, prog.T1, fail)
	}
	b.Li(prog.A0, 1)
	b.Jump(ok)
	b.Label(fail)
	b.Li(prog.A0, 0)
	b.Label(ok)
	g.Epilogue()

	return b.Build()
}

func buildGawk(t prog.Target, scale int) (*prog.Program, error) {
	scale = clampScale(scale)
	b := prog.New("gawk", t)
	const fields = 8
	lines := 220 * scale
	text := makeNumberText(newRNG(202+targetSalt(t.Name)), lines, fields)
	b.Bytes("text", text)
	b.Zeros("fieldsums", fields*8)
	b.Zeros("zerocount", 8)
	b.Zeros("maxval", 8)
	b.Zeros("errflag", 8)

	// main: walk the text, calling parseField per field; accumulate into
	// the per-field sum table (loads of slowly-growing accumulators),
	// count zero fields (redundant data), and track the max.
	f := b.Func("main", 0, prog.S0, prog.S1, prog.S2, prog.S3, prog.S4)
	f.MarkPtr(prog.S0, prog.S3)
	b.GotData(prog.S0, "text")
	b.MaterializeInt(prog.S1, int64(len(text))) // end offset
	b.Li(prog.S2, 0)                            // cursor
	b.GotData(prog.S3, "fieldsums")
	b.Li(prog.S4, 0) // field index within line
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	b.Label(loop)
	b.Branch(isa.BGE, prog.S2, prog.S1, done)
	b.Op3(isa.ADD, prog.A0, prog.S0, prog.S2)
	b.Call("parseField") // A0 = value, A1 = bytes consumed
	b.Op3(isa.ADD, prog.S2, prog.S2, prog.A1)
	// Conservative aliasing: the callee might have moved fieldsums, so
	// the compiler re-loads its address from the GOT after every call
	// (the paper's "memory alias resolution" idiom). The reload is
	// perfectly value-local and sits on the accumulation chain.
	b.GotData(prog.S3, "fieldsums")
	// fieldsums[S4] += value (load-add-store; the load sees an
	// accumulating value: low-to-moderate locality)
	b.OpI(isa.SHLI, prog.T0, prog.S4, 3)
	b.Op3(isa.ADD, prog.T0, prog.T0, prog.S3)
	b.Load(isa.LD, prog.T1, prog.T0, 0, isa.LoadIntData)
	b.Op3(isa.ADD, prog.T1, prog.T1, prog.A0)
	b.Store(isa.SD, prog.T1, prog.T0, 0)
	// zero-field check (paper: "empty cells / data redundancy")
	nz := b.NewLabel("nz")
	b.Branch(isa.BNE, prog.A0, prog.Zero, nz)
	addr := b.SymbolAddr("zerocount")
	b.Load(isa.LD, prog.T2, prog.GP, int64(addr-prog.DataBase), isa.LoadIntData)
	b.OpI(isa.ADDI, prog.T2, prog.T2, 1)
	b.Store(isa.SD, prog.T2, prog.GP, int64(addr-prog.DataBase))
	b.Label(nz)
	// max tracking: load of a rarely-changing global (high locality)
	maxAddr := b.SymbolAddr("maxval")
	noMax := b.NewLabel("nomax")
	b.Load(isa.LD, prog.T3, prog.GP, int64(maxAddr-prog.DataBase), isa.LoadIntData)
	b.Branch(isa.BGE, prog.T3, prog.A0, noMax)
	b.Store(isa.SD, prog.A0, prog.GP, int64(maxAddr-prog.DataBase))
	b.Label(noMax)
	// advance field index modulo `fields`
	b.OpI(isa.ADDI, prog.S4, prog.S4, 1)
	b.OpI(isa.SLTI, prog.T4, prog.S4, fields)
	wrapOK := b.NewLabel("wrapok")
	b.Branch(isa.BNE, prog.T4, prog.Zero, wrapOK)
	b.Li(prog.S4, 0)
	b.Label(wrapOK)
	b.Jump(loop)
	b.Label(done)
	b.ErrorCheck("errflag", "gawkfail")
	// Emit the per-field sums and the zero count.
	for i := int64(0); i < fields; i++ {
		b.Load(isa.LD, prog.T0, prog.S3, i*8, isa.LoadIntData)
		b.Out(prog.T0)
	}
	b.Load(isa.LD, prog.T0, prog.GP, int64(b.SymbolAddr("zerocount")-prog.DataBase), isa.LoadIntData)
	b.Out(prog.T0)
	f.Epilogue()

	b.Label("gawkfail")
	b.Li(prog.A0, -1)
	b.Out(prog.A0)
	b.Halt()

	// parseField(A0 = ptr): skip separators, parse decimal digits.
	// Returns A0 = value, A1 = bytes consumed.
	g := b.Func("parseField", 0, prog.S0, prog.S1)
	g.MarkPtr(prog.S0, prog.S1)
	b.Mv(prog.S0, prog.A0) // cursor
	b.Mv(prog.S1, prog.A0) // start
	skip, digits, digitLoop, fdone := b.NewLabel("skip"), b.NewLabel("digits"), b.NewLabel("dloop"), b.NewLabel("fdone")
	b.Label(skip)
	b.Load(isa.LBU, prog.T0, prog.S0, 0, isa.LoadIntData)
	b.OpI(isa.SLTI, prog.T1, prog.T0, '0')
	b.Branch(isa.BEQ, prog.T1, prog.Zero, digits) // >= '0': digit start
	b.OpI(isa.ADDI, prog.S0, prog.S0, 1)
	b.Jump(skip)
	b.Label(digits)
	b.Li(prog.A0, 0)
	b.Label(digitLoop)
	b.Load(isa.LBU, prog.T0, prog.S0, 0, isa.LoadIntData)
	b.OpI(isa.SLTI, prog.T1, prog.T0, '0')
	b.Branch(isa.BNE, prog.T1, prog.Zero, fdone)
	b.OpI(isa.SLTI, prog.T1, prog.T0, '9'+1)
	b.Branch(isa.BEQ, prog.T1, prog.Zero, fdone)
	b.Li(prog.T2, 10)
	b.Op3(isa.MUL, prog.A0, prog.A0, prog.T2)
	b.OpI(isa.ADDI, prog.T0, prog.T0, -'0')
	b.Op3(isa.ADD, prog.A0, prog.A0, prog.T0)
	b.OpI(isa.ADDI, prog.S0, prog.S0, 1)
	b.Jump(digitLoop)
	b.Label(fdone)
	b.Op3(isa.SUB, prog.A1, prog.S0, prog.S1)
	b.OpI(isa.ADDI, prog.A1, prog.A1, 1) // consume the terminator too
	g.Epilogue()

	return b.Build()
}

func buildCompress(t prog.Target, scale int) (*prog.Program, error) {
	scale = clampScale(scale)
	b := prog.New("compress", t)
	text := makeText(newRNG(303+targetSalt(t.Name)), 4096*scale)
	const tableSize = 4096 // power of two
	b.Bytes("text", text)
	b.Zeros("hkeys", tableSize*8)  // hashed (prefix<<9|char)+1, 0 = empty
	b.Zeros("hcodes", tableSize*8) // assigned code
	b.Zeros("errflag", 8)

	// main: LZW-style loop. prefix starts as first byte; for each next
	// char, probe the hash table for (prefix, char): hit extends the
	// prefix, miss emits a code and inserts. Repetitive text makes the
	// probe loads highly value-local.
	f := b.Func("main", 0, prog.S0, prog.S1, prog.S2, prog.S3, prog.S4, prog.S5, prog.S6)
	f.MarkPtr(prog.S0, prog.S4, prog.S5)
	b.GotData(prog.S0, "text")
	b.MaterializeInt(prog.S1, int64(len(text)))
	b.GotData(prog.S4, "hkeys")
	b.GotData(prog.S5, "hcodes")
	b.Li(prog.S6, 256)                                    // next code
	b.Load(isa.LBU, prog.S2, prog.S0, 0, isa.LoadIntData) // prefix
	b.Li(prog.S3, 1)                                      // cursor
	b.Li(prog.T9, 0)                                      // emitted-code checksum held in T9 across the loop
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	b.Label(loop)
	b.Branch(isa.BGE, prog.S3, prog.S1, done)
	b.Op3(isa.ADD, prog.T0, prog.S0, prog.S3)
	b.Load(isa.LBU, prog.T1, prog.T0, 0, isa.LoadIntData) // c
	// key = (prefix<<9 | c) + 1  (never zero)
	b.OpI(isa.SHLI, prog.T2, prog.S2, 9)
	b.Op3(isa.OR, prog.T2, prog.T2, prog.T1)
	b.OpI(isa.ADDI, prog.T2, prog.T2, 1)
	// h = key * 2654435761 mod tableSize (Fibonacci-ish hashing)
	b.MaterializeInt(prog.T3, 2654435761)
	b.Op3(isa.MUL, prog.T4, prog.T2, prog.T3)
	b.OpI(isa.SHRI, prog.T4, prog.T4, 8)
	b.OpI(isa.ANDI, prog.T4, prog.T4, tableSize-1)
	probe, insert, hit, advance := b.NewLabel("probe"), b.NewLabel("insert"), b.NewLabel("hit"), b.NewLabel("advance")
	b.Label(probe)
	b.OpI(isa.SHLI, prog.T5, prog.T4, 3)
	b.Op3(isa.ADD, prog.T5, prog.T5, prog.S4)
	b.Load(isa.LD, prog.T6, prog.T5, 0, isa.LoadIntData) // table key
	b.Branch(isa.BEQ, prog.T6, prog.Zero, insert)        // empty slot
	b.Branch(isa.BEQ, prog.T6, prog.T2, hit)             // match
	b.OpI(isa.ADDI, prog.T4, prog.T4, 1)                 // linear probe
	b.OpI(isa.ANDI, prog.T4, prog.T4, tableSize-1)
	b.Jump(probe)
	b.Label(insert)
	b.Store(isa.SD, prog.T2, prog.T5, 0) // key
	b.OpI(isa.SHLI, prog.T7, prog.T4, 3)
	b.Op3(isa.ADD, prog.T7, prog.T7, prog.S5)
	b.Store(isa.SD, prog.S6, prog.T7, 0) // code
	b.OpI(isa.ADDI, prog.S6, prog.S6, 1)
	// emit current prefix code: checksum = checksum*31 + prefix
	b.Li(prog.T8, 31)
	b.Op3(isa.MUL, prog.T9, prog.T9, prog.T8)
	b.Op3(isa.ADD, prog.T9, prog.T9, prog.S2)
	b.Mv(prog.S2, prog.T1) // prefix = c
	b.Jump(advance)
	b.Label(hit)
	b.OpI(isa.SHLI, prog.T7, prog.T4, 3)
	b.Op3(isa.ADD, prog.T7, prog.T7, prog.S5)
	b.Load(isa.LD, prog.S2, prog.T7, 0, isa.LoadIntData) // prefix = code (moderate locality)
	b.Label(advance)
	b.OpI(isa.ADDI, prog.S3, prog.S3, 1)
	b.Jump(loop)
	b.Label(done)
	b.ErrorCheck("errflag", "compressfail")
	b.Out(prog.T9)
	b.Out(prog.S6) // dictionary size
	f.Epilogue()

	b.Label("compressfail")
	b.Li(prog.A0, -1)
	b.Out(prog.A0)
	b.Halt()

	return b.Build()
}

func buildGperf(t prog.Target, scale int) (*prog.Program, error) {
	scale = clampScale(scale)
	b := prog.New("gperf", t)
	// 24 fixed keywords, padded to 12 bytes each (length in byte 11).
	keywords := []string{
		"auto", "break", "case", "char", "const", "continue", "default",
		"do", "double", "else", "enum", "extern", "float", "for", "goto",
		"if", "int", "long", "register", "return", "short", "signed",
		"sizeof", "static",
	}
	const kwStride = 12
	kwData := make([]byte, len(keywords)*kwStride)
	for i, w := range keywords {
		copy(kwData[i*kwStride:], w)
		kwData[i*kwStride+kwStride-1] = byte(len(w))
	}
	b.Bytes("keywords", kwData)
	b.Zeros("asso", 256*8)    // associated values, adjusted across attempts
	b.Zeros("occupied", 64*8) // hash occupancy per attempt
	b.Zeros("errflag", 8)

	// main: repeat hash-assignment attempts; on collision, bump the
	// associated value of the colliding keyword's first char and retry.
	// The asso[] and keyword loads recur heavily across attempts.
	attempts := 40 * scale
	f := b.Func("main", 0, prog.S0, prog.S1, prog.S2, prog.S3, prog.S4, prog.S5, prog.S6, prog.S7)
	f.MarkPtr(prog.S0, prog.S1, prog.S2)
	b.GotData(prog.S0, "keywords")
	b.GotData(prog.S1, "asso")
	b.GotData(prog.S2, "occupied")
	b.MaterializeInt(prog.S3, int64(attempts))
	b.Li(prog.S4, 0) // attempt counter
	b.Li(prog.S5, 0) // total collisions observed
	b.Li(prog.S7, 0) // alias-reload checksum
	aloop, adone := b.NewLabel("aloop"), b.NewLabel("adone")
	b.Label(aloop)
	b.Branch(isa.BGE, prog.S4, prog.S3, adone)
	// clear occupancy
	b.Li(prog.T0, 0)
	clr := b.NewLabel("clr")
	b.Label(clr)
	b.OpI(isa.SHLI, prog.T1, prog.T0, 3)
	b.Op3(isa.ADD, prog.T1, prog.T1, prog.S2)
	b.Store(isa.SD, prog.Zero, prog.T1, 0)
	b.OpI(isa.ADDI, prog.T0, prog.T0, 1)
	b.OpI(isa.SLTI, prog.T2, prog.T0, 64)
	b.Branch(isa.BNE, prog.T2, prog.Zero, clr)
	// hash every keyword
	b.Li(prog.S6, 0) // keyword index (callee-saved across the call)
	kwloop, kwdone := b.NewLabel("kwloop"), b.NewLabel("kwdone")
	b.Label(kwloop)
	b.OpI(isa.SLTI, prog.T0, prog.S6, int64(len(keywords)))
	b.Branch(isa.BEQ, prog.T0, prog.Zero, kwdone)
	b.Mv(prog.A0, prog.S6)
	b.Call("hashKeyword") // A0 in: index; A0 out: hash; A1 out: first char
	// occupancy check
	b.OpI(isa.ANDI, prog.T0, prog.A0, 63)
	b.OpI(isa.SHLI, prog.T0, prog.T0, 3)
	b.Op3(isa.ADD, prog.T0, prog.T0, prog.S2)
	b.Load(isa.LD, prog.T1, prog.T0, 0, isa.LoadIntData)
	free := b.NewLabel("free")
	b.Branch(isa.BEQ, prog.T1, prog.Zero, free)
	// collision: asso[first]++ and count it
	b.OpI(isa.ADDI, prog.S5, prog.S5, 1)
	b.OpI(isa.SHLI, prog.T2, prog.A1, 3)
	b.Op3(isa.ADD, prog.T2, prog.T2, prog.S1)
	b.Load(isa.LD, prog.T3, prog.T2, 0, isa.LoadIntData)
	b.OpI(isa.ADDI, prog.T3, prog.T3, 1)
	b.Store(isa.SD, prog.T3, prog.T2, 0)
	b.Label(free)
	b.Li(prog.T4, 1)
	b.Store(isa.SD, prog.T4, prog.T0, 0)
	b.Load(isa.LD, prog.T5, prog.T0, 0, isa.LoadIntData) // alias re-load (compiler conservatism)
	b.Op3(isa.ADD, prog.S7, prog.S7, prog.T5)
	b.OpI(isa.ADDI, prog.S6, prog.S6, 1)
	b.Jump(kwloop)
	b.Label(kwdone)
	b.OpI(isa.ADDI, prog.S4, prog.S4, 1)
	b.Jump(aloop)
	b.Label(adone)
	b.ErrorCheck("errflag", "gperffail")
	b.Out(prog.S5)
	b.Out(prog.S7)
	f.Epilogue()

	b.Label("gperffail")
	b.Li(prog.A0, -1)
	b.Out(prog.A0)
	b.Halt()

	// hashKeyword(A0 = index) -> A0 = hash, A1 = first char.
	// hash = len + asso[ch0] + asso[chLast]. The keyword bytes and the
	// asso[] entries are loaded afresh every attempt and recur heavily.
	g := b.Func("hashKeyword", 0, prog.S0, prog.S1)
	g.MarkPtr(prog.S0, prog.S1)
	b.GotData(prog.S0, "keywords")
	b.GotData(prog.S1, "asso")
	b.Li(prog.T0, kwStride)
	b.Op3(isa.MUL, prog.T1, prog.A0, prog.T0)
	b.Op3(isa.ADD, prog.T1, prog.T1, prog.S0)                      // &kw[i]
	b.Load(isa.LBU, prog.T2, prog.T1, kwStride-1, isa.LoadIntData) // length
	b.Load(isa.LBU, prog.A1, prog.T1, 0, isa.LoadIntData)          // first char
	b.Op3(isa.ADD, prog.T3, prog.T1, prog.T2)
	b.Load(isa.LBU, prog.T4, prog.T3, -1, isa.LoadIntData) // last char
	b.OpI(isa.SHLI, prog.T5, prog.A1, 3)
	b.Op3(isa.ADD, prog.T5, prog.T5, prog.S1)
	b.Load(isa.LD, prog.T6, prog.T5, 0, isa.LoadIntData) // asso[first]
	b.OpI(isa.SHLI, prog.T7, prog.T4, 3)
	b.Op3(isa.ADD, prog.T7, prog.T7, prog.S1)
	b.Load(isa.LD, prog.T8, prog.T7, 0, isa.LoadIntData) // asso[last]
	b.Op3(isa.ADD, prog.A0, prog.T2, prog.T6)
	b.Op3(isa.ADD, prog.A0, prog.A0, prog.T8)
	g.Epilogue()

	return b.Build()
}
