package exp

import (
	"context"
	"fmt"

	"sramco/internal/core"
	"sramco/internal/device"
)

// VddScaleRow is one point of the Vdd-scaling extension experiment: the
// optimized array metrics of a flavor at a scaled supply, with the assist
// rails re-derived by simulation at that supply.
type VddScaleRow struct {
	Vdd    float64
	Flavor device.Flavor

	VDDCStar, VWLStar float64 // re-derived minimum-yield rails
	LeakCell          float64

	Delay  float64
	Energy float64
	EDP    float64
}

// VddScaling quantifies the paper's §1 argument that supply scaling is a
// weaker lever than HVT adoption: for each supply it builds a fully
// simulated framework (rails, leakage and current laws re-derived at that
// Vdd), optimizes the array for both flavors under M2, and reports the
// resulting metrics. Expect the LVT array's energy to fall with Vdd but its
// EDP to remain above the HVT array at nominal supply. Cancellation is
// threaded through every per-supply framework build and search.
func VddScaling(ctx context.Context, capacityBits int, vdds []float64) ([]VddScaleRow, error) {
	var rows []VddScaleRow
	for _, vdd := range vdds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fw, err := core.NewFramework(core.TechSimulated, core.FrameworkOpts{Vdd: vdd})
		if err != nil {
			return nil, fmt.Errorf("exp: VddScaling framework at %gV: %w", vdd, err)
		}
		for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
			opt, err := fw.Optimize(ctx, core.Options{CapacityBits: capacityBits, Flavor: flavor, Method: core.M2})
			if err != nil {
				return nil, fmt.Errorf("exp: VddScaling %v at %gV: %w", flavor, vdd, err)
			}
			cc := fw.Cells[flavor]
			r := opt.Best.Result
			rows = append(rows, VddScaleRow{
				Vdd: vdd, Flavor: flavor,
				VDDCStar: cc.VDDCStar, VWLStar: cc.VWLStar, LeakCell: cc.Leak,
				Delay: r.DArray, Energy: r.EArray, EDP: r.EDP,
			})
		}
	}
	return rows, nil
}

// VddScaleTable renders the Vdd-scaling experiment.
func VddScaleTable(rows []VddScaleRow) *Table {
	t := &Table{
		Title:   "Extension: supply scaling vs HVT adoption (M2-optimized arrays, fully simulated rails)",
		Headers: []string{"Vdd (mV)", "flavor", "VDDC* (mV)", "VWL* (mV)", "P_leak/cell (pW)", "delay (ps)", "energy (fJ)", "EDP (1e-27 J·s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Vdd*1e3, r.Flavor.String(), r.VDDCStar*1e3, r.VWLStar*1e3,
			r.LeakCell*1e12, r.Delay*1e12, r.Energy*1e15, r.EDP*1e27)
	}
	return t
}
