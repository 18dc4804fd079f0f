package exp

import (
	"fmt"
	"io"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// The ablation studies below are not paper figures; they exercise the
// design-space directions the paper's §7 calls out (table sizing,
// classification and the CVU; predictors beyond last-value are the zoo's,
// zoo.go).

// LVPTSweepResult holds prediction coverage (fraction of loads predicted
// correctly, Simple-style unit) as the LVPT size grows.
type LVPTSweepResult struct {
	Sizes []int
	// Coverage[i] is the suite geometric-mean coverage at Sizes[i].
	Coverage []float64
}

// LVPTSweep measures untagged-table interference: coverage vs LVPT entries
// on the PPC target.
func (s *Suite) LVPTSweep(sizes []int) (*LVPTSweepResult, error) {
	if len(sizes) == 0 {
		sizes = []int{256, 512, 1024, 2048, 4096, 8192}
	}
	res := &LVPTSweepResult{Sizes: sizes, Coverage: make([]float64, len(sizes))}
	for i, size := range sizes {
		cfg := lvp.Simple
		cfg.Name = fmt.Sprintf("Simple/%d", size)
		cfg.LVPTEntries = size
		// Per-benchmark slots keep the GeoMean reduction order (and thus
		// its floating-point rounding) independent of completion order.
		covs := make([]float64, len(bench.All()))
		err := s.forEachBenchIdx(func(bi int, b bench.Benchmark) error {
			st, err := s.AnnotationStats(b.Name, prog.PPC, cfg)
			if err != nil {
				return err
			}
			covs[bi] = st.Coverage()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Coverage[i] = stats.GeoMean(covs)
	}
	return res, nil
}

// Render writes the sweep.
func (r *LVPTSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: LVPT size vs prediction coverage (GM over suite, PPC, Simple LCT/CVU)",
		Columns: []string{"LVPT entries", "Coverage"},
	}
	for i, sz := range r.Sizes {
		t.AddRow(sz, stats.Pct(r.Coverage[i], 1))
	}
	t.Render(w)
}

// LCTBitsResult compares classifier widths.
type LCTBitsResult struct {
	Bits     []int
	Accuracy []float64 // GM prediction accuracy when predicting
	Coverage []float64 // GM fraction of loads predicted correctly
}

// LCTBitsSweep measures classification quality vs counter width.
func (s *Suite) LCTBitsSweep(bits []int) (*LCTBitsResult, error) {
	if len(bits) == 0 {
		bits = []int{1, 2, 3}
	}
	res := &LCTBitsResult{Bits: bits,
		Accuracy: make([]float64, len(bits)), Coverage: make([]float64, len(bits))}
	for i, b := range bits {
		cfg := lvp.Simple
		cfg.Name = fmt.Sprintf("Simple/lct%d", b)
		cfg.LCTBits = b
		n := len(bench.All())
		accs, covs := make([]float64, n), make([]float64, n)
		err := s.forEachBenchIdx(func(bi int, bm bench.Benchmark) error {
			st, err := s.AnnotationStats(bm.Name, prog.PPC, cfg)
			if err != nil {
				return err
			}
			accs[bi] = st.Accuracy()
			covs[bi] = st.Coverage()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Accuracy[i] = stats.GeoMean(accs)
		res.Coverage[i] = stats.GeoMean(covs)
	}
	return res, nil
}

// Render writes the sweep.
func (r *LCTBitsResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: LCT counter width (GM over suite, PPC)",
		Columns: []string{"Bits", "Accuracy", "Coverage"},
	}
	for i, b := range r.Bits {
		t.AddRow(b, stats.Pct(r.Accuracy[i], 1), stats.Pct(r.Coverage[i], 1))
	}
	t.Render(w)
}

// CVUSweepResult holds constant coverage vs CVU capacity.
type CVUSweepResult struct {
	Sizes     []int
	ConstRate []float64
}

// CVUSweep measures the CVU-capacity sensitivity of constant verification.
func (s *Suite) CVUSweep(sizes []int) (*CVUSweepResult, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128, 256}
	}
	res := &CVUSweepResult{Sizes: sizes, ConstRate: make([]float64, len(sizes))}
	for i, size := range sizes {
		cfg := lvp.Constant
		cfg.Name = fmt.Sprintf("Constant/cvu%d", size)
		cfg.CVUEntries = size
		rates := make([]float64, len(bench.All()))
		err := s.forEachBenchIdx(func(bi int, b bench.Benchmark) error {
			st, err := s.AnnotationStats(b.Name, prog.PPC, cfg)
			if err != nil {
				return err
			}
			rates[bi] = st.ConstantRate()
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.ConstRate[i] = stats.Mean(rates)
	}
	return res, nil
}

// Render writes the sweep.
func (r *CVUSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: CVU capacity vs constant-identification rate (mean over suite, PPC)",
		Columns: []string{"CVU entries", "Constant rate"},
	}
	for i, sz := range r.Sizes {
		t.AddRow(sz, stats.Pct(r.ConstRate[i], 1))
	}
	t.Render(w)
}
