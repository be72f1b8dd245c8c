// Quickstart: optimize a single SRAM array with the public sramco API.
//
// It builds the paper-calibrated framework, finds the minimum-EDP design of
// a 4 KB array using HVT cells with unrestricted assist rails (method M2),
// and prints a Table-4-style design row with its delay/energy/EDP.
package main

import (
	"context"
	"fmt"

	"sramco"
	"sramco/internal/cliutil"
)

func main() {
	cliutil.SetName("quickstart")

	fw, err := sramco.NewFramework(sramco.TechPaper)
	if err != nil {
		cliutil.Fatalf("characterization failed: %v", err)
	}

	const capacityBytes = 4 * 1024
	best, err := fw.Optimize(context.Background(), sramco.Options{
		CapacityBits: capacityBytes * 8,
		Flavor:       sramco.HVT,
		Method:       sramco.M2,
	})
	if err != nil {
		cliutil.Fatalf("optimization failed: %v", err)
	}

	d, r := best.Best.Design, best.Best.Result
	fmt.Printf("Minimum-EDP design for a %d-byte 6T-HVT array (M2):\n", capacityBytes)
	fmt.Printf("  organization:  %d rows x %d columns (W=%d bits/access)\n", d.Geom.NR, d.Geom.NC, d.Geom.W)
	fmt.Printf("  fin sizing:    N_pre=%d  N_wr=%d\n", d.Geom.Npre, d.Geom.Nwr)
	fmt.Printf("  assist rails:  VDDC=%.0fmV  VSSC=%.0fmV  VWL=%.0fmV\n", d.VDDC*1e3, d.VSSC*1e3, d.VWL*1e3)
	fmt.Printf("  delay:         %.1f ps (read %.1f / write %.1f)\n", r.DArray*1e12, r.DRead*1e12, r.DWrite*1e12)
	fmt.Printf("  energy:        %.2f fJ per cycle (leakage share %.0f%%)\n", r.EArray*1e15, 100*r.ELeak/r.EArray)
	fmt.Printf("  EDP:           %.3g J*s\n", r.EDP)
	fmt.Printf("  search cost:   %d analytical model evaluations\n", best.Stats.Evaluated)
	fmt.Printf("  search stats:  %s\n", best.Stats)
}
