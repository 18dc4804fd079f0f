package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/ppc620"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// resourceVariant is one single-axis enlargement of the base 620.
type resourceVariant struct {
	name  string
	apply func(*ppc620.Config)
}

func resourceVariants() []resourceVariant {
	return []resourceVariant{
		{"base 620", func(c *ppc620.Config) {}},
		{"2x reservation stations", func(c *ppc620.Config) {
			for f := range c.RS {
				c.RS[f] *= 2
			}
		}},
		{"2x rename buffers", func(c *ppc620.Config) {
			c.GPRRename *= 2
			c.FPRRename *= 2
		}},
		{"2x completion buffer", func(c *ppc620.Config) {
			c.Completion *= 2
		}},
		{"2nd load/store unit", func(c *ppc620.Config) {
			c.Units[ppc620.LSU] = 2
			c.MaxLoadDispatch, c.MaxStoreDispatch = 2, 2
			c.RelaxedLS = true
		}},
		{"620+ (all of the above)", func(c *ppc620.Config) {
			*c = ppc620.Config620Plus()
		}},
	}
}

// ResourceRow is one variant's geometric-mean speedup over the base 620.
type ResourceRow struct {
	Name    string
	Speedup float64
}

// ResourceResult is the single-axis resource-sensitivity study of the 620 —
// which buffer the 620+'s gains actually come from (context for the paper's
// §6.2 discussion).
type ResourceResult struct {
	Rows []ResourceRow
}

// ResourceSweep runs the whole suite over each variant (no LVP) and reports
// GM speedups over the base 620.
func (s *Suite) ResourceSweep() (*ResourceResult, error) {
	variants := resourceVariants()
	res := &ResourceResult{Rows: make([]ResourceRow, len(variants))}
	speedups := make([][]float64, len(variants))
	for vi := range speedups {
		speedups[vi] = make([]float64, len(bench.All()))
	}
	err := s.forEachBenchIdx(func(bi int, b bench.Benchmark) error {
		base := 0
		for vi, v := range variants {
			cfg := ppc620.Config620()
			v.apply(&cfg)
			// The base and 620+ variants equal the paper machines, so
			// their cells are fig6/table6's cache entries.
			st, err := s.sim620(b.Name, cfg, nil)
			if err != nil {
				return err
			}
			if vi == 0 {
				base = st.Cycles
			}
			speedups[vi][bi] = float64(base) / float64(st.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		res.Rows[vi] = ResourceRow{Name: v.name, Speedup: stats.GeoMean(speedups[vi])}
	}
	return res, nil
}

// Render writes the sweep.
func (r *ResourceResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: which 620 resource binds? (GM speedup over base 620, no LVP)",
		Columns: []string{"Variant", "GM speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.Ratio(row.Speedup))
	}
	t.Render(w)
}
