package exp

import (
	"context"
	"fmt"

	"sramco/internal/array"
	"sramco/internal/core"
	"sramco/internal/device"
)

// WorkloadRow is one (α, β) point of the workload-sensitivity extension:
// the optimized LVT-M2 and HVT-M2 EDPs under that activity profile.
type WorkloadRow struct {
	Alpha, Beta float64
	EDPLVT      float64
	EDPHVT      float64
}

// HVTGain returns the EDP reduction of HVT over LVT at this workload.
func (r WorkloadRow) HVTGain() float64 { return 1 - r.EDPHVT/r.EDPLVT }

// WorkloadSweep re-optimizes both flavors (method M2) over a grid of
// activity factors. The paper fixes α = β = 0.5; this extension shows how
// the HVT advantage grows as the array idles more (lower α: leakage
// dominates) and shrinks for switching-dominated profiles. Cancellation is
// threaded through every search.
func WorkloadSweep(ctx context.Context, fw *core.Framework, capacityBits int, alphas, betas []float64) ([]WorkloadRow, error) {
	var rows []WorkloadRow
	for _, a := range alphas {
		for _, b := range betas {
			row := WorkloadRow{Alpha: a, Beta: b}
			for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
				opt, err := fw.Optimize(ctx, core.Options{
					CapacityBits: capacityBits,
					Flavor:       flavor,
					Method:       core.M2,
					Activity:     array.Activity{Alpha: a, Beta: b},
				})
				if err != nil {
					return nil, fmt.Errorf("exp: workload (α=%g β=%g) %v: %w", a, b, flavor, err)
				}
				if flavor == device.LVT {
					row.EDPLVT = opt.Best.Result.EDP
				} else {
					row.EDPHVT = opt.Best.Result.EDP
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WorkloadTable renders the workload sweep.
func WorkloadTable(rows []WorkloadRow) *Table {
	t := &Table{
		Title:   "Extension: HVT-M2 EDP gain over LVT-M2 across workload activity factors",
		Headers: []string{"alpha", "beta", "EDP LVT (1e-27 J*s)", "EDP HVT (1e-27 J*s)", "HVT gain"},
	}
	for _, r := range rows {
		t.AddRow(r.Alpha, r.Beta, r.EDPLVT*1e27, r.EDPHVT*1e27,
			fmt.Sprintf("%.0f%%", r.HVTGain()*100))
	}
	return t
}
