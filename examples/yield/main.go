// Yield: reproduce the paper's Monte Carlo rationale for δ = 0.35·Vdd.
//
// The paper (§2) states that, under the random variation of single-fin 7 nm
// FinFETs, cell margins must exceed 35% of Vdd for a high-yield array. This
// example samples the 6T-HVT cell's read SNM with and without the Vdd-boost
// assist and shows how the assist moves the margin distribution above δ.
package main

import (
	"context"
	"fmt"

	"sramco"
	"sramco/internal/cell"
	"sramco/internal/cliutil"
)

func main() {
	cliutil.SetName("yield")
	const samples = 48
	delta := sramco.Delta()

	fmt.Printf("Monte Carlo read-SNM yield of 6T-HVT (%d samples, σVt=25mV, δ=%.0fmV):\n\n",
		samples, delta*1e3)

	for _, pt := range []struct {
		name string
		vddc float64
	}{
		{"no assist (VDDC = Vdd)", sramco.Vdd},
		{"Vdd boost (VDDC = 550mV)", 0.550},
		{"Vdd boost (VDDC = 640mV)", 0.640},
	} {
		read := cell.NominalRead(sramco.Vdd)
		read.VDDC = pt.vddc
		res, err := sramco.MonteCarloYield(context.Background(), sramco.MCConfig{
			Flavor:  sramco.HVT,
			N:       samples,
			Seed:    2016, // the paper's year, for reproducibility
			Read:    read,
			Metrics: 2, // RSNM only
		}, nil)
		if err != nil {
			cliutil.Fatalf("%v", err)
		}
		s := res.RSNM
		fmt.Printf("%-26s mean=%.0fmV σ=%.1fmV min=%.0fmV μ-3σ=%.0fmV fail(δ)=%.0f%%  [%s]\n",
			pt.name, s.Mean*1e3, s.Std*1e3, s.Min*1e3, (s.Mean-3*s.Std)*1e3,
			res.Final.FailFraction*100, res.Stats)
	}

	fmt.Println("\nThe boost lifts μ-3σ above δ, which is exactly why the paper pins")
	fmt.Println("VDDC at the minimum level meeting the constraint before searching the")
	fmt.Println("remaining array variables.")
}
