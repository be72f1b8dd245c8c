package exp

import (
	"context"
	"fmt"

	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/unit"
)

// PaperCapacities are the five capacities of Table 4 / Fig. 7, in bits.
func PaperCapacities() []int {
	return []int{
		128 * 8,       // 128 B
		256 * 8,       // 256 B
		1 * 1024 * 8,  // 1 KB
		4 * 1024 * 8,  // 4 KB
		16 * 1024 * 8, // 16 KB
	}
}

// Config identifies one of the four array configurations of §5
// (6T-{LVT,HVT}-{M1,M2}).
type Config struct {
	Flavor device.Flavor
	Method core.Method
}

func (c Config) String() string { return fmt.Sprintf("6T-%v-%v", c.Flavor, c.Method) }

// AllConfigs returns the four configurations in the paper's order.
func AllConfigs() []Config {
	return []Config{
		{device.LVT, core.M1},
		{device.HVT, core.M1},
		{device.LVT, core.M2},
		{device.HVT, core.M2},
	}
}

// Table4Row is one optimized design point: the paper's Table 4 columns plus
// the evaluation totals needed for Fig. 7.
type Table4Row struct {
	CapacityBits int
	Config       Config

	NR, NC, Npre, Nwr int
	VDDC, VSSC, VWL   float64

	Delay   float64 // D_array
	Energy  float64 // E_array
	EDP     float64
	BLDelay float64 // read bitline delay component (Fig. 7(d))

	Evaluated int // search cost
}

// Table4 runs the co-optimization for every capacity × configuration, with
// cancellation threaded through every search.
func Table4(ctx context.Context, fw *core.Framework, capacities []int) ([]Table4Row, error) {
	var rows []Table4Row
	for _, bits := range capacities {
		for _, cfg := range AllConfigs() {
			opt, err := fw.Optimize(ctx, core.Options{
				CapacityBits: bits,
				Flavor:       cfg.Flavor,
				Method:       cfg.Method,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: Table4 %s %s: %w", unit.Bytes(bits), cfg, err)
			}
			d, r := opt.Best.Design, opt.Best.Result
			rows = append(rows, Table4Row{
				CapacityBits: bits,
				Config:       cfg,
				NR:           d.Geom.NR, NC: d.Geom.NC,
				Npre: d.Geom.Npre, Nwr: d.Geom.Nwr,
				VDDC: d.VDDC, VSSC: d.VSSC, VWL: d.VWL,
				Delay:     r.DArray,
				Energy:    r.EArray,
				EDP:       r.EDP,
				BLDelay:   r.Parts.DBLRead,
				Evaluated: opt.Evaluated,
			})
		}
	}
	return rows, nil
}

// Table4Render renders the Table-4 design parameters.
func Table4Render(rows []Table4Row) *Table {
	t := &Table{
		Title:   "Table 4: SRAM array design parameters for the minimum energy-delay point (voltages in mV)",
		Headers: []string{"M", "SRAM", "n_r", "n_c", "N_pre", "N_wr", "V_DDC", "V_SSC", "V_WL"},
	}
	for _, r := range rows {
		t.AddRow(unit.Bytes(r.CapacityBits), r.Config.String(),
			r.NR, r.NC, r.Npre, r.Nwr,
			fmt.Sprintf("%.0f", r.VDDC*1e3), fmt.Sprintf("%.0f", r.VSSC*1e3), fmt.Sprintf("%.0f", r.VWL*1e3))
	}
	return t
}

// Fig7Render renders the Fig. 7(a)-(c) series: delay, energy and EDP of the
// four configurations per capacity.
func Fig7Render(rows []Table4Row) *Table {
	t := &Table{
		Title:   "Fig. 7(a)-(c): delay, energy and EDP of the optimized arrays",
		Headers: []string{"M", "SRAM", "delay (ps)", "energy (fJ)", "EDP (aJ·s·1e-9)"},
	}
	for _, r := range rows {
		t.AddRow(unit.Bytes(r.CapacityBits), r.Config.String(),
			r.Delay*1e12, r.Energy*1e15, r.EDP*1e27)
	}
	return t
}

// Fig7dRow compares BL delay vs total delay for the HVT arrays (Fig. 7(d)).
type Fig7dRow struct {
	CapacityBits       int
	BLDelayM1, TotalM1 float64
	BLDelayM2, TotalM2 float64
}

// Fig7d extracts the HVT M1-vs-M2 bitline/total delay comparison from
// Table-4 rows.
func Fig7d(rows []Table4Row) []Fig7dRow {
	byCap := map[int]*Fig7dRow{}
	var order []int
	for _, r := range rows {
		if r.Config.Flavor != device.HVT {
			continue
		}
		fr, ok := byCap[r.CapacityBits]
		if !ok {
			fr = &Fig7dRow{CapacityBits: r.CapacityBits}
			byCap[r.CapacityBits] = fr
			order = append(order, r.CapacityBits)
		}
		if r.Config.Method == core.M1 {
			fr.BLDelayM1, fr.TotalM1 = r.BLDelay, r.Delay
		} else {
			fr.BLDelayM2, fr.TotalM2 = r.BLDelay, r.Delay
		}
	}
	out := make([]Fig7dRow, 0, len(order))
	for _, bits := range order {
		out = append(out, *byCap[bits])
	}
	return out
}

// Fig7dRender renders the Fig. 7(d) comparison.
func Fig7dRender(rows []Fig7dRow) *Table {
	t := &Table{
		Title:   "Fig. 7(d): BL delay vs total delay in 6T-HVT-M1 and 6T-HVT-M2 arrays (ps)",
		Headers: []string{"M", "BL delay M1", "total M1", "BL delay M2", "total M2", "BL reduction", "total reduction"},
	}
	for _, r := range rows {
		t.AddRow(unit.Bytes(r.CapacityBits),
			r.BLDelayM1*1e12, r.TotalM1*1e12, r.BLDelayM2*1e12, r.TotalM2*1e12,
			fmt.Sprintf("%.2fx", r.BLDelayM1/r.BLDelayM2),
			fmt.Sprintf("%.2fx", r.TotalM1/r.TotalM2))
	}
	return t
}

// Headline aggregates the paper's abstract numbers from Table-4 rows:
// average EDP reduction and delay penalty of HVT-M2 vs LVT-M2 for arrays of
// at least 1 KB.
type Headline struct {
	AvgEDPReduction  float64 // paper: 0.59
	AvgDelayPenalty  float64 // paper: 0.09
	MaxDelayPenalty  float64 // paper: 0.12
	EDPReduction16KB float64 // paper: 0.78
}

// ComputeHeadline derives the headline statistics from Table-4 rows.
func ComputeHeadline(rows []Table4Row) (*Headline, error) {
	find := func(bits int, cfg Config) (Table4Row, error) {
		for _, r := range rows {
			if r.CapacityBits == bits && r.Config == cfg {
				return r, nil
			}
		}
		return Table4Row{}, fmt.Errorf("exp: missing row %s %s", unit.Bytes(bits), cfg)
	}
	var caps []int
	seen := map[int]bool{}
	for _, r := range rows {
		if !seen[r.CapacityBits] {
			seen[r.CapacityBits] = true
			caps = append(caps, r.CapacityBits)
		}
	}
	var h Headline
	n := 0
	for _, bits := range caps {
		if bits < 8192 {
			continue // headline covers 1 KB-16 KB
		}
		lvt, err := find(bits, Config{device.LVT, core.M2})
		if err != nil {
			return nil, err
		}
		hvt, err := find(bits, Config{device.HVT, core.M2})
		if err != nil {
			return nil, err
		}
		red := 1 - hvt.EDP/lvt.EDP
		pen := hvt.Delay/lvt.Delay - 1
		h.AvgEDPReduction += red
		h.AvgDelayPenalty += pen
		if pen > h.MaxDelayPenalty {
			h.MaxDelayPenalty = pen
		}
		if bits == 16*1024*8 {
			h.EDPReduction16KB = red
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("exp: no rows ≥ 1KB")
	}
	h.AvgEDPReduction /= float64(n)
	h.AvgDelayPenalty /= float64(n)
	return &h, nil
}
