// Command prunestats prints the branch-and-bound breakdown for the golden
// capacity grid and two 8-group hybrid points, then for four Pareto
// searches: per search, how many candidate points it evaluated, how many
// the lower bound pruned, how many each constraint skipped, the resulting
// bound efficiency, how many units (chunk × segmentation × mux × mask
// rectangles) it prepared, and for a Pareto search the front's size. Run it when
// touching the bound (internal/array/bound.go) or the searcher
// (internal/core/walk.go) — a correctness-preserving change that loosens the
// bound shows up here as an efficiency drop long before it shows up as a
// latency regression.
//
// Usage:
//
//	prunestats [-mode paper]
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"sramco/internal/cliutil"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/obs"
	"sramco/internal/unit"
)

func main() {
	cliutil.SetName("prunestats")
	modeStr := flag.String("mode", "paper", "calibration mode: paper or simulated")
	flag.Parse()

	mode := core.TechPaper
	if strings.EqualFold(*modeStr, "simulated") {
		mode = core.TechSimulated
	} else if !strings.EqualFold(*modeStr, "paper") {
		cliutil.Fatalf("unknown mode %q", *modeStr)
	}
	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	if err != nil {
		cliutil.Fatalf("%v", err)
	}

	header := func(first, last string) {
		fmt.Printf("%-8s %-6s %-6s %12s %12s %12s %10s %9s %10s\n",
			first, "flavor", "method", "evaluated", "pruned", "skipped", "bound-eff", "prepared", last)
	}
	header("capacity", "wall")
	var totalEval, totalPruned, totalSkipped int
	var totalPrepared int64
	// A search prepared the units the core.search.units_prepared counter
	// advanced by.
	unitsPrepared := func() int64 { return obs.Default().CounterValue("core.search.units_prepared") }
	// row runs one search and prints its breakdown, with the units it
	// prepared.
	row := func(capacity, flavor, method string, opts core.Options) {
		before := unitsPrepared()
		opt, err := fw.Optimize(context.Background(), opts)
		if err != nil {
			cliutil.Fatalf("%s %s %s: %v", capacity, flavor, method, err)
		}
		prepared := unitsPrepared() - before
		st := opt.Stats
		fmt.Printf("%-8s %-6s %-6s %12d %12d %12d %9.1f%% %9d %10s\n",
			capacity, flavor, method, st.Evaluated, st.PrunedBound, st.SkippedTotal(),
			100*st.BoundEfficiency(), prepared, st.Wall.Round(10_000))
		totalEval += st.Evaluated
		totalPruned += st.PrunedBound
		totalSkipped += st.SkippedTotal()
		totalPrepared += prepared
	}
	for _, kb := range []int{1, 2, 4, 8, 16} {
		for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
			for _, method := range []core.Method{core.M1, core.M2} {
				row(unit.Bytes(kb*1024*8), flavor.String(), method.String(), core.Options{
					CapacityBits: kb * 1024 * 8,
					Flavor:       flavor,
					Method:       method,
				})
			}
		}
	}
	// Two hybrid points over 8 row groups and mux ratios up to 4: the
	// enlarged (group-assignment × mux) space leans on the bound far harder
	// than the paper grid, so their efficiency is the first number to drop
	// when a bound change loosens the hybrid terms. The 16 KB min-PADP point
	// is the largest space any search covers; the 4 KB min-EDP point is the
	// costliest cell of the sramperf search-hybrid workload.
	sp := core.DefaultSpace()
	sp.MuxMax = 4
	padp, _ := core.ObjectiveByName("padp")
	row("16KB*", "hyb8", "m2", core.Options{
		CapacityBits: 16 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       core.M2,
		Objective:    padp,
		HybridGroups: 8,
		Space:        sp,
	})
	row("4KB*", "hyb8", "m2", core.Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       core.M2,
		HybridGroups: 8,
		Space:        sp,
	})

	eff := 0.0
	if total := totalEval + totalPruned; total > 0 {
		eff = float64(totalPruned) / float64(total)
	}
	fmt.Printf("%-8s %-6s %-6s %12d %12d %12d %9.1f%% %9d\n",
		"total", "", "", totalEval, totalPruned, totalSkipped, 100*eff, totalPrepared)

	// Pareto searches prune against each chunk's prune front instead of an
	// objective threshold (DESIGN.md §11), so their counts move with the
	// front's size: the paper's 4 KB and 16 KB cells, a segmented and
	// muxed 1 KB cell, and the 4 KB 8-group hybrid above.
	fmt.Println()
	header("pareto", "front")
	pareto := func(capacity, flavor, method string, opts core.Options) {
		before := unitsPrepared()
		res, err := fw.Pareto(context.Background(), opts)
		if err != nil {
			cliutil.Fatalf("%s %s %s pareto: %v", capacity, flavor, method, err)
		}
		st := res.Stats
		fmt.Printf("%-8s %-6s %-6s %12d %12d %12d %9.1f%% %9d %10d\n",
			capacity, flavor, method, st.Evaluated, st.PrunedBound, st.SkippedTotal(),
			100*st.BoundEfficiency(), unitsPrepared()-before, len(res.Front))
	}
	for _, kb := range []int{4, 16} {
		pareto(unit.Bytes(kb*1024*8), "HVT", "M2", core.Options{CapacityBits: kb * 1024 * 8, Flavor: device.HVT, Method: core.M2})
	}
	pareto("1KB+", "HVT", "M2", core.Options{
		CapacityBits: 1024 * 8,
		Flavor:       device.HVT,
		Method:       core.M2,
		SearchWLSegs: true,
		Space:        sp,
	})
	pareto("4KB*", "hyb8", "m2", core.Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       core.M2,
		HybridGroups: 8,
		Space:        sp,
	})
}
