// Cachebank: size the data array of an L1 cache bank.
//
// A 16 KB L1 data bank with a 64-bit access port is the workload the paper's
// introduction motivates: leakage-dominated capacity where HVT cells shine.
// This example compares all four configurations (LVT/HVT × M1/M2), prints
// the trade-off table, and recommends the minimum-EDP design, also showing
// how the recommendation shifts for a read-heavy workload (β = 0.9).
package main

import (
	"context"
	"fmt"

	"sramco"
	"sramco/internal/cliutil"
	"sramco/internal/obs"
)

const bankBytes = 16 * 1024

func main() {
	cliutil.SetName("cachebank")
	ctx := context.Background()

	fw, err := sramco.NewFramework(sramco.TechPaper)
	if err != nil {
		cliutil.Fatalf("characterization failed: %v", err)
	}

	type entry struct {
		name string
		opt  *sramco.Optimum
	}
	var entries []entry
	for _, cfg := range []struct {
		name   string
		flavor sramco.Flavor
		method sramco.Method
	}{
		{"6T-LVT-M1", sramco.LVT, sramco.M1},
		{"6T-HVT-M1", sramco.HVT, sramco.M1},
		{"6T-LVT-M2", sramco.LVT, sramco.M2},
		{"6T-HVT-M2", sramco.HVT, sramco.M2},
	} {
		opt, err := fw.Optimize(ctx, sramco.Options{CapacityBits: bankBytes * 8, Flavor: cfg.flavor, Method: cfg.method})
		if err != nil {
			cliutil.Fatalf("%s: %v", cfg.name, err)
		}
		entries = append(entries, entry{cfg.name, opt})
	}

	fmt.Printf("16 KB L1 data bank, balanced workload (alpha=0.5, beta=0.5):\n")
	fmt.Printf("%-11s %9s %9s %12s %8s %14s\n", "config", "delay", "energy", "EDP (J*s)", "n_r*n_c", "VSSC")
	best := entries[0]
	for _, e := range entries {
		r := e.opt.Best.Result
		d := e.opt.Best.Design
		fmt.Printf("%-11s %7.1fps %7.1ffJ %12.3g %4dx%-4d %8.0fmV\n",
			e.name, r.DArray*1e12, r.EArray*1e15, r.EDP, d.Geom.NR, d.Geom.NC, d.VSSC*1e3)
		if r.EDP < best.opt.Best.Result.EDP {
			best = e
		}
	}
	fmt.Printf("-> recommended: %s (%.0f%% lower EDP than 6T-LVT-M2, %.0f%% delay penalty)\n\n",
		best.name,
		100*(1-best.opt.Best.Result.EDP/entries[2].opt.Best.Result.EDP),
		100*(best.opt.Best.Result.DArray/entries[2].opt.Best.Result.DArray-1))

	// Read-heavy variant: an instruction-cache-like port (90% reads).
	fmt.Printf("Read-heavy variant (beta=0.9):\n")
	for _, cfg := range []struct {
		name   string
		flavor sramco.Flavor
	}{{"6T-LVT-M2", sramco.LVT}, {"6T-HVT-M2", sramco.HVT}} {
		opt, err := fw.Optimize(ctx, sramco.Options{
			CapacityBits: bankBytes * 8,
			Flavor:       cfg.flavor,
			Method:       sramco.M2,
			Activity:     sramco.Activity{Alpha: 0.5, Beta: 0.9},
		})
		if err != nil {
			cliutil.Fatalf("%s: %v", cfg.name, err)
		}
		r := opt.Best.Result
		fmt.Printf("  %-11s delay %.1fps energy %.1ffJ EDP %.3g\n",
			cfg.name, r.DArray*1e12, r.EArray*1e15, r.EDP)
	}

	// Scale up: a 64 KB L2 slice partitioned into banks (extension beyond
	// the paper's 16 KB single-array scope).
	fmt.Printf("\n64 KB HVT-M2 slice, bank partitioning sweep:\n")
	sweep, err := fw.Core().BankSweep(ctx, sramco.Options{
		CapacityBits: 64 * 1024 * 8,
		Flavor:       sramco.HVT,
		Method:       sramco.M2,
	}, 8)
	if err != nil {
		cliutil.Fatalf("bank sweep: %v", err)
	}
	for _, s := range sweep {
		fmt.Printf("  %d bank(s) of %4dx%-4d: delay %.1fps (wire %.1fps) energy %.1ffJ EDP %.3g\n",
			s.Banks, s.PerBank.Design.Geom.NR, s.PerBank.Design.Geom.NC,
			s.DArray*1e12, (s.WireDelay+s.BankDecDelay)*1e12, s.EArray*1e15, s.EDP)
	}

	fmt.Printf("\ntotal work: %s\n",
		obs.Default().StatsLine("core.search.runs", "core.search.evaluated", "array.evaluations"))
}
