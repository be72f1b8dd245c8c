// Command mcyield runs Monte Carlo yield analysis of the 6T SRAM cell under
// per-transistor threshold variation, reporting margin statistics, μ−kσ
// values and the failure fraction against the paper's δ = 0.35·Vdd
// constraint. With -stream or -rel-ci it prints checkpoint lines with
// converging confidence intervals instead, and -rel-ci stops the run early
// once the requested relative CI on μ−3σ is met.
//
// Usage:
//
//	mcyield [-flavor hvt] [-n 200] [-sigma 0.025] [-seed 1]
//	        [-vddc 0.45] [-vssc 0] [-vwl 0.45]
//	        [-metric hsnm,rsnm,wm] [-sampler mc|sobol|lhs] [-tilt 1]
//	        [-stream] [-rel-ci 0]
//	        [-trace out.jsonl] [-metrics] [-progress] [-debug]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sramco/internal/cell"
	"sramco/internal/cliutil"
	"sramco/internal/device"
	"sramco/internal/mc"
	"sramco/internal/num"
	"sramco/internal/obs"
	"sramco/internal/unit"
)

// parseMetrics maps a comma-separated metric list onto the mc bitmask.
func parseMetrics(s string) (mc.Metric, error) {
	if s == "" {
		return mc.AllMetrics, nil
	}
	var m mc.Metric
	for _, name := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "hsnm":
			m |= mc.HSNM
		case "rsnm":
			m |= mc.RSNM
		case "wm":
			m |= mc.WM
		default:
			return 0, fmt.Errorf("unknown metric %q (want hsnm, rsnm or wm)", name)
		}
	}
	return m, nil
}

func main() {
	cliutil.SetName("mcyield")
	flavorStr := flag.String("flavor", "hvt", "cell flavor: lvt or hvt")
	n := flag.Int("n", 200, "number of Monte Carlo samples (budget when -rel-ci is set)")
	sigma := flag.Float64("sigma", mc.DefaultSigmaVt, "per-device ΔVt sigma (V)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	vddc := flag.Float64("vddc", device.Vdd, "read-assist cell supply (V)")
	vssc := flag.Float64("vssc", 0, "read-assist cell ground (V, ≤0)")
	vwl := flag.Float64("vwl", device.Vdd, "write wordline level (V)")
	metricStr := flag.String("metric", "", "comma-separated margins to compute (hsnm,rsnm,wm; default all)")
	samplerStr := flag.String("sampler", "mc", "draw sequence: mc, sobol or lhs")
	tilt := flag.Float64("tilt", 1, "importance-sampling σ inflation τ (1 disables)")
	stream := flag.Bool("stream", false, "streaming mode: print a checkpoint line per interval")
	relCI := flag.Float64("rel-ci", 0, "streaming early-stop: target relative 95% CI on μ-3σ (0 disables)")
	obsFlags := cliutil.ObsFlags()
	flag.Parse()

	flavor, err := device.ParseFlavor(*flavorStr)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	metrics, err := parseMetrics(*metricStr)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	sampler, err := mc.ParseSampler(strings.ToLower(*samplerStr))
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	if err := obsFlags.Start(); err != nil {
		cliutil.Fatalf("%v", err)
	}

	read := cell.NominalRead(device.Vdd)
	read.VDDC = *vddc
	read.VSSC = *vssc
	write := cell.NominalWrite(device.Vdd)
	write.VWL = *vwl

	streaming := *stream || *relCI > 0
	cfg := mc.Config{
		Flavor: flavor, N: *n, SigmaVt: *sigma, Seed: *seed,
		Read: read, Write: write, Metrics: metrics,
		Sampler: sampler, Tilt: *tilt, RelCI: *relCI,
	}

	// Ctrl-C / SIGTERM abandons the pending samples; in-flight ones finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.Default()
	stopProgress := obsFlags.StartProgress(func() string {
		// The total comes from the flag, not mc.samples.total: the gauge is
		// an in-flight total shared across concurrent runs.
		return fmt.Sprintf("mc: sample %d/%d", reg.CounterValue("mc.samples.done"), *n)
	})

	fmt.Printf("6T-%v, %d samples, σVt=%s, sampler=%v tilt=%g, VDDC=%s VSSC=%s VWL=%s\n",
		flavor, *n, unit.Volts(*sigma), sampler, *tilt,
		unit.Volts(*vddc), unit.Volts(*vssc), unit.Volts(*vwl))

	var emit func(mc.Checkpoint) error
	if streaming {
		emit = printCheckpoint
	}
	res, err := mc.Run(ctx, cfg, emit)
	stopProgress()
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	if streaming {
		fmt.Printf("done: %s, %d checkpoints", res.Stats, res.Checkpoints)
		if res.Final.Converged {
			fmt.Printf(", converged inside rel CI %g after %d of %d samples", *relCI, res.Final.Samples, *n)
		}
		fmt.Println()
		cliutil.Shutdown()
		return
	}
	fmt.Printf("  run: %s\n", res.Stats)
	report := func(name string, s num.Summary) {
		if s.N == 0 {
			return
		}
		fmt.Printf("  %-5s mean=%s σ=%s min=%s  μ-3σ=%s  μ-6σ=%s\n",
			name, unit.Volts(s.Mean), unit.Volts(s.Std), unit.Volts(s.Min),
			unit.Volts(mc.MuMinusKSigma(s, 3)), unit.Volts(mc.MuMinusKSigma(s, 6)))
	}
	report("HSNM", res.HSNM)
	report("RSNM", res.RSNM)
	report("WM", res.WM)
	fmt.Printf("  fraction with min margin < δ=%s: %.1f%%\n", unit.Volts(res.Final.Delta), res.Final.FailFraction*100)
	cliutil.Shutdown()
}

// printCheckpoint prints one streaming checkpoint line per interval.
func printCheckpoint(cp mc.Checkpoint) error {
	tag := ""
	if cp.Converged {
		tag = "  [converged]"
	} else if cp.Final {
		tag = "  [final]"
	}
	fmt.Printf("checkpoint: %d samples, ESS %.0f, fail %.2f%% [%.2f%%, %.2f%%]%s\n",
		cp.Samples, cp.ESS, cp.FailFraction*100, cp.FailLo*100, cp.FailHi*100, tag)
	printStat("HSNM", cp.HSNM)
	printStat("RSNM", cp.RSNM)
	printStat("WM", cp.WM)
	return nil
}

func printStat(name string, m *mc.MetricStat) {
	if m == nil {
		return
	}
	rel := "n/a"
	if m.RelCI >= 0 {
		rel = fmt.Sprintf("%.2f%%", m.RelCI*100)
	}
	fmt.Printf("  %-5s μ=%s σ=%s  μ-3σ=%s ±%s (rel %s)\n",
		name, unit.Volts(m.Mean), unit.Volts(m.Std), unit.Volts(m.Mu3),
		unit.Volts(m.CIHalf), rel)
}
