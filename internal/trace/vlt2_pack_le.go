//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package trace

import "unsafe"

// storeRecTail writes Record's seven adjacent byte-wide fields (Op through
// Taken) plus their one padding byte as a single 8-byte little-endian store
// — the hot decode loop's biggest single cost is the Record write, and this
// collapses seven narrow stores into one. The layout assertion below fails
// the build's first test run if Record's field order ever changes; the
// big-endian/portable fallback lives in vlt2_pack_generic.go.
func storeRecTail(r *Record, op, rd, ra, rb, class, size, taken uint8) {
	*(*uint64)(unsafe.Pointer(&r.Op)) = uint64(op) | uint64(rd)<<8 | uint64(ra)<<16 |
		uint64(rb)<<24 | uint64(class)<<32 | uint64(size)<<40 | uint64(taken)<<48
}

// The packed store requires Op..Taken contiguous at an 8-byte-aligned offset
// with Targ in the following word, so the padding byte it overwrites is
// really padding. Verified at init: a violation panics before any test or
// binary gets further.
func init() {
	var r Record
	if unsafe.Offsetof(r.Op) != 32 ||
		unsafe.Offsetof(r.Rd) != 33 ||
		unsafe.Offsetof(r.Ra) != 34 ||
		unsafe.Offsetof(r.Rb) != 35 ||
		unsafe.Offsetof(r.Class) != 36 ||
		unsafe.Offsetof(r.Size) != 37 ||
		unsafe.Offsetof(r.Taken) != 38 ||
		unsafe.Offsetof(r.Targ) != 40 {
		panic("trace: Record layout changed; update storeRecTail (vlt2_pack_le.go)")
	}
}
