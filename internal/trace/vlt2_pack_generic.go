//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package trace

import "lvp/internal/isa"

// storeRecTail is the portable fallback for platforms where the packed
// little-endian store in vlt2_pack_le.go does not apply: plain field
// assignments.
func storeRecTail(r *Record, op, rd, ra, rb, class, size, taken uint8) {
	r.Op = isa.Op(op)
	r.Rd = isa.Reg(rd)
	r.Ra = isa.Reg(ra)
	r.Rb = isa.Reg(rb)
	r.Class = isa.LoadClass(class)
	r.Size = size
	r.Taken = taken != 0
}
