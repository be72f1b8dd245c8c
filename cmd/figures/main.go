// Command figures regenerates every table and figure of the paper's
// evaluation section, printing ASCII tables and optionally writing CSV files
// to an output directory.
//
// Usage:
//
//	figures [-out out/] [-mode paper|simulated] [-skip-sweeps]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"sramco/internal/cell"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/exp"
	"sramco/internal/num"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	outDir := flag.String("out", "", "directory for CSV output (empty: no CSV)")
	modeStr := flag.String("mode", "paper", "calibration mode: paper or simulated")
	skipSweeps := flag.Bool("skip-sweeps", false, "skip the cell-level sweep figures (2, 3, 5)")
	ext := flag.Bool("ext", false, "also run the extension experiments (corners, temperature)")
	extVdd := flag.Bool("ext-vdd", false, "also run the Vdd-scaling extension (slow: re-characterizes per supply)")
	flag.Parse()

	mode := core.TechPaper
	if strings.EqualFold(*modeStr, "simulated") {
		mode = core.TechSimulated
	} else if !strings.EqualFold(*modeStr, "paper") {
		log.Fatalf("unknown mode %q", *modeStr)
	}

	emit := func(name string, t *exp.Table) {
		fmt.Println(t.ASCII())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*outDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", path)
		}
	}

	vdd := device.Vdd
	if !*skipSweeps {
		fig2Rows, err := exp.Fig2(num.Linspace(0.10, vdd, 8))
		check(err)
		emit("fig2", exp.Fig2Table(fig2Rows))

		a, err := exp.Fig3a(vdd)
		check(err)
		fmt.Printf("Fig. 3(a): RSNM HVT/LVT = %.2fx (paper 1.9x); I_read HVT/LVT = %.2fx (paper ~0.5x)\n\n",
			a.RSNMRatio(), a.IReadRatio())

		f3b, err := exp.Fig3b(device.HVT, vdd, num.Linspace(vdd, 0.70, 6))
		check(err)
		emit("fig3b", exp.AssistTable("Fig. 3(b): Vdd boost read-assist (6T-HVT)", "V_DDC", f3b))

		f3c, err := exp.Fig3c(device.HVT, vdd, num.Linspace(-0.24, 0, 7))
		check(err)
		emit("fig3c", exp.AssistTable("Fig. 3(c): negative Gnd read-assist (6T-HVT)", "V_SSC", f3c))

		f3d, err := exp.Fig3d(device.HVT, vdd, num.Linspace(0.25, vdd, 6))
		check(err)
		emit("fig3d", exp.AssistTable("Fig. 3(d): WL underdrive read-assist (6T-HVT)", "V_WL", f3d))

		f5a, err := exp.Fig5a(device.HVT, vdd, num.Linspace(vdd, 0.62, 6))
		check(err)
		emit("fig5a", exp.WriteAssistTable("Fig. 5(a): WL overdrive write-assist (6T-HVT)", "V_WL", f5a))

		f5b, err := exp.Fig5b(device.HVT, vdd, num.Linspace(-0.15, 0, 6))
		check(err)
		emit("fig5b", exp.WriteAssistTable("Fig. 5(b): negative BL write-assist (6T-HVT)", "V_BL", f5b))

		fit, err := exp.ReadCurrentFit(vdd)
		check(err)
		fmt.Printf("Read-current fit: a=%.2f (paper %.1f), b=%.3g (paper %.3g); I_read gain @-240mV = %.2fx (paper quotes %.1fx)\n\n",
			fit.A, fit.PaperA, fit.B, fit.PaperB, fit.GainNeg240, fit.PaperGain)
	}

	log.Printf("characterizing %s framework...", mode)
	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	check(err)
	rows, err := exp.Table4(context.Background(), fw, exp.PaperCapacities())
	check(err)
	emit("table4", exp.Table4Render(rows))
	emit("fig7", exp.Fig7Render(rows))
	emit("fig7d", exp.Fig7dRender(exp.Fig7d(rows)))

	h, err := exp.ComputeHeadline(rows)
	check(err)
	fmt.Printf("Headline (1KB-16KB, HVT-M2 vs LVT-M2): EDP reduction avg %.0f%% (paper 59%%), 16KB %.0f%% (paper 78%%); delay penalty avg %.0f%% max %.0f%% (paper 9%%/12%%)\n",
		h.AvgEDPReduction*100, h.EDPReduction16KB*100, h.AvgDelayPenalty*100, h.MaxDelayPenalty*100)

	if *ext {
		read := cellReadBias(vdd)
		write := cellWriteBias(vdd)
		corners, err := exp.CornerAnalysis(device.HVT, read, write)
		check(err)
		emit("ext_corners", exp.CornerTable("Extension: 6T-HVT at the adopted assist point across process corners", corners))

		temps, err := exp.TemperatureSweep(device.HVT, read, []float64{233, 273, 300, 348, 398})
		check(err)
		emit("ext_temps", exp.TempTable("Extension: 6T-HVT (assisted read bias) across temperature", temps))
	}
	if *extVdd {
		log.Print("re-characterizing per supply (slow)...")
		vs, err := exp.VddScaling(context.Background(), 16*1024*8, []float64{0.30, 0.35, 0.40, 0.45})
		check(err)
		emit("ext_vddscale", exp.VddScaleTable(vs))
	}
}

// cellReadBias is the paper's adopted HVT read operating point.
func cellReadBias(vdd float64) cell.ReadBias {
	return cell.ReadBias{Vdd: vdd, VDDC: 0.550, VSSC: -0.240, VWL: vdd}
}

// cellWriteBias is the paper's adopted HVT write operating point.
func cellWriteBias(vdd float64) cell.WriteBias {
	return cell.WriteBias{Vdd: vdd, VWL: 0.540, VBL: 0}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
