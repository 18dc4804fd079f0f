package lvp

import (
	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/trace"
)

// pathLVP is the first refinement the paper's §7 proposes: "allowing
// multiple values per static load in the prediction table by including
// branch history bits ... in the lookup index". It is a last-value table
// indexed by a hash of the load PC and the global branch-history register,
// so one static load can hold a different prediction per control-flow path.
type pathLVP struct {
	mask     uint64
	histBits int
	ghr      uint64
	values   []uint64
}

// newPathLVP returns a path-indexed table with the given entries (power of
// two) and number of branch-history bits folded into the index.
func newPathLVP(entries, histBits int) *pathLVP {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lvp: PathLVP entries must be a positive power of two")
	}
	if histBits < 0 || histBits > 32 {
		panic("lvp: PathLVP history bits must be in [0,32]")
	}
	return &pathLVP{
		mask:     uint64(entries - 1),
		histBits: histBits,
		values:   make([]uint64, entries),
	}
}

func (p *pathLVP) index(pc uint64) int {
	h := p.ghr & ((1 << p.histBits) - 1)
	return int(((pc / isa.InstBytes) ^ (h * 0x9E37)) & p.mask)
}

// Predict returns the value cached for (pc, current path).
func (p *pathLVP) Predict(pc uint64) uint64 { return p.values[p.index(pc)] }

// Update stores the actual value for (pc, current path).
func (p *pathLVP) Update(pc, actual uint64) { p.values[p.index(pc)] = actual }

// Branch shifts a branch outcome into the global history register; the
// measurement driver calls this for every conditional branch, mirroring a
// fetch-stage GHR.
func (p *pathLVP) Branch(taken bool) {
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
}

// MeasurePathAccuracy runs a pathLVP over a trace, feeding it branch
// outcomes, and reports the fraction of loads predicted exactly. histBits=0
// degenerates to plain last-value prediction (the control).
func MeasurePathAccuracy(t *trace.Trace, entries, histBits int) locality.Ratio {
	p := newPathLVP(entries, histBits)
	var r locality.Ratio
	for i := range t.Records {
		rec := &t.Records[i]
		if isa.IsCondBranch(rec.Op) {
			p.Branch(rec.Taken)
			continue
		}
		if !rec.IsLoad() {
			continue
		}
		r.Total++
		if p.Predict(rec.PC) == rec.Value {
			r.Hits++
		}
		p.Update(rec.PC, rec.Value)
	}
	return r
}
