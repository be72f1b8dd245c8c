// Command sramopt runs the device-circuit-architecture co-optimization for
// one SRAM array capacity and prints the optimal design point (a Table-4
// style row) together with its full delay/energy breakdown.
//
// Usage:
//
//	sramopt [-bytes 4096] [-flavor hvt] [-method m2] [-mode paper] [-breakdown]
//	        [-compare geom NRxNC:Npre:Nwr:VSSCmV] [-json]
//	        [-trace out.jsonl] [-metrics] [-progress] [-debug]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sramco/internal/array"
	"sramco/internal/cliutil"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/obs"
	"sramco/internal/unit"
)

// jsonReport is the -json output: the optimum design point with its
// evaluation, the noise margins backing its feasibility, and the search
// counters.
type jsonReport struct {
	CapacityBytes int              `json:"capacity_bytes"`
	Flavor        string           `json:"flavor"`
	Method        string           `json:"method"`
	Mode          string           `json:"mode"`
	Design        array.Design     `json:"design"`
	EDP           float64          `json:"edp_js"`
	DArray        float64          `json:"delay_s"`
	EArray        float64          `json:"energy_j"`
	Margins       jsonMargins      `json:"margins"`
	Result        *array.Result    `json:"result"`
	Stats         core.SearchStats `json:"search_stats"`
	// BoundEff is the branch-and-bound prune fraction,
	// PrunedBound / (Evaluated + PrunedBound) — how much of the candidate
	// space the lower bound removed without evaluation.
	BoundEff float64 `json:"bound_efficiency"`
}

// jsonMargins records the noise margins of the chosen operating point
// against the paper's δ = 0.35·Vdd requirement.
type jsonMargins struct {
	Delta      float64 `json:"delta_v"`     // required minimum margin
	HSNM       float64 `json:"hsnm_v"`      // hold SNM at nominal Vdd
	RSNMAtVSSC float64 `json:"rsnm_v"`      // read SNM at the optimum's (VDDC*, VSSC)
	VDDCStar   float64 `json:"vddc_star_v"` // minimum read-assist supply meeting yield
	VWLStar    float64 `json:"vwl_star_v"`  // minimum write wordline meeting yield
}

// searchFlags are the flags that select sramopt's search.
type searchFlags struct {
	bytes                           int
	flavor, method, mode, objective string
	dwl                             bool
	groups, mux                     int
}

// register defines the search flags on fs.
func (sf *searchFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&sf.bytes, "bytes", 4096, "array capacity in bytes (power of two)")
	fs.StringVar(&sf.flavor, "flavor", "hvt", "cell flavor: lvt or hvt")
	fs.StringVar(&sf.method, "method", "m2", "rail method: m1 (one extra rail) or m2 (unrestricted)")
	fs.StringVar(&sf.mode, "mode", "paper", "calibration mode: paper or simulated")
	fs.BoolVar(&sf.dwl, "dwl", false, "also search divided-wordline segmentation (extension)")
	fs.StringVar(&sf.objective, "objective", "edp", "search objective: edp, delay, energy, area or padp")
	fs.IntVar(&sf.groups, "groups", 0, "hybrid cell-assignment row groups (power of two ≤ 8; 0 = single flavor)")
	fs.IntVar(&sf.mux, "mux", 0, "max column-mux ratio searched (power of two; 0 = one SA per column pair)")
}

// options resolves the parsed flags into the calibration mode and the
// search options.
func (sf *searchFlags) options() (core.Mode, core.Options, error) {
	flavor, err := device.ParseFlavor(sf.flavor)
	if err != nil {
		return 0, core.Options{}, err
	}
	method, err := core.ParseMethod(sf.method)
	if err != nil {
		return 0, core.Options{}, err
	}
	mode, err := core.ParseMode(sf.mode)
	if err != nil {
		return 0, core.Options{}, err
	}
	objective, ok := core.ObjectiveByName(sf.objective)
	if !ok {
		return 0, core.Options{}, fmt.Errorf("unknown objective %q (want edp, delay, energy, area or padp)", sf.objective)
	}
	opts := core.Options{
		CapacityBits: sf.bytes * 8, Flavor: flavor, Method: method,
		SearchWLSegs: sf.dwl, Objective: objective, HybridGroups: sf.groups,
	}
	if sf.mux > 1 {
		sp := core.DefaultSpace()
		sp.MuxMax = sf.mux
		opts.Space = sp
	}
	return mode, opts, nil
}

func main() {
	cliutil.SetName("sramopt")
	var sf searchFlags
	sf.register(flag.CommandLine)
	breakdown := flag.Bool("breakdown", false, "print the full component breakdown")
	compare := flag.String("compare", "", "also evaluate a fixed design NRxNC:Npre:Nwr:VSSCmV")
	sensitivity := flag.Bool("sensitivity", false, "print the neighbor sensitivity of the optimum")
	asJSON := flag.Bool("json", false, "emit the optimum as JSON on stdout instead of text")
	obsFlags := cliutil.ObsFlags()
	flag.Parse()

	mode, opts, err := sf.options()
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	if err := obsFlags.Start(); err != nil {
		cliutil.Fatalf("%v", err)
	}

	// Ctrl-C / SIGTERM cancels every worker of the in-flight search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	reg := obs.Default()
	stopProgress := obsFlags.StartProgress(func() string {
		return fmt.Sprintf("search: %d evaluated, chunk %d/%d",
			reg.CounterValue("core.search.evaluated"),
			reg.CounterValue("core.search.chunks_done"),
			int64(reg.GaugeValue("core.search.chunks_total")))
	})
	opt, err := fw.Optimize(ctx, opts)
	stopProgress()
	if err != nil {
		var serr *core.SearchError
		if errors.As(err, &serr) && errors.Is(err, context.Canceled) {
			cliutil.Fatalf("search interrupted after %s", serr.Stats)
		}
		cliutil.Fatalf("%v", err)
	}
	d, r := opt.Best.Design, opt.Best.Result

	if *asJSON {
		if err := writeJSON(os.Stdout, fw, mode, opts, opt); err != nil {
			cliutil.Fatalf("encoding JSON: %v", err)
		}
		cliutil.Shutdown()
		return
	}

	fmt.Printf("%s 6T-%v-%v (%s mode): optimum over %d evaluations\n",
		unit.Bytes(opts.CapacityBits), opts.Flavor, opts.Method, mode, opt.Stats.Evaluated)
	fmt.Printf("  search: %s\n", opt.Stats)
	fmt.Printf("  n_r=%d n_c=%d N_pre=%d N_wr=%d VDDC=%s VSSC=%s VWL=%s%s\n",
		d.Geom.NR, d.Geom.NC, d.Geom.Npre, d.Geom.Nwr,
		unit.Volts(d.VDDC), unit.Volts(d.VSSC), unit.Volts(d.VWL), organization(d))
	printResult(r)
	if *breakdown {
		printBreakdown(r)
	}
	if *sensitivity {
		sens, err := fw.SensitivityAt(opts, opt.Best)
		if err != nil {
			cliutil.Fatalf("%v", err)
		}
		fmt.Println("  neighbor sensitivity (objective relative to optimum; n/a = outside the space or infeasible):")
		for _, s := range sens {
			fmt.Printf("    %-6s down %-8s up %s\n", s.Variable, relStr(s.DownRel), relStr(s.UpRel))
		}
	}

	if *compare != "" {
		cr, err := compareDesign(fw, opts.Flavor, *compare, opts.CapacityBits, opt.Best)
		if err != nil {
			cliutil.Fatalf("%v", err)
		}
		cd := cr.Design
		fmt.Printf("comparison design n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%s%s:\n",
			cd.Geom.NR, cd.Geom.NC, cd.Geom.Npre, cd.Geom.Nwr, unit.Volts(cd.VSSC), organization(cd))
		printResult(cr)
		if *breakdown {
			printBreakdown(cr)
		}
	}
	cliutil.Shutdown()
}

// organization returns the design-line fields a flat, unshared,
// single-flavor array leaves out: the wordline segments, the mux ratio and
// the row-group assignment.
func organization(d array.Design) string {
	var b strings.Builder
	if s := d.Geom.Segments(); s > 1 {
		fmt.Fprintf(&b, " WLsegs=%d", s)
	}
	if m := d.Geom.MuxRatio(); m > 1 {
		fmt.Fprintf(&b, " mux=%d", m)
	}
	if d.Groups > 0 {
		fmt.Fprintf(&b, " groups=%d mask=%#x", d.Groups, d.GroupMask)
	}
	return b.String()
}

// writeJSON writes the -json report of a completed search to w.
func writeJSON(w io.Writer, fw *core.Framework, mode core.Mode, opts core.Options, opt *core.Optimum) error {
	d, r := opt.Best.Design, opt.Best.Result
	cc := fw.Cells[opts.Flavor]
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		CapacityBytes: opts.CapacityBits / 8,
		Flavor:        opts.Flavor.String(),
		Method:        opts.Method.String(),
		Mode:          mode.String(),
		Design:        d,
		EDP:           r.EDP,
		DArray:        r.DArray,
		EArray:        r.EArray,
		Margins: jsonMargins{
			Delta:      fw.Delta,
			HSNM:       cc.HSNM,
			RSNMAtVSSC: cc.RSNMAt(d.VSSC),
			VDDCStar:   cc.VDDCStar,
			VWLStar:    cc.VWLStar,
		},
		Result:   r,
		Stats:    opt.Stats,
		BoundEff: opt.Stats.BoundEfficiency(),
	})
}

func relStr(v float64) string {
	if v != v { // NaN
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}

func printResult(r *array.Result) {
	fmt.Printf("  D_rd=%s D_wr=%s D_array=%s\n",
		unit.Seconds(r.DRead), unit.Seconds(r.DWrite), unit.Seconds(r.DArray))
	fmt.Printf("  E_sw,rd=%s E_sw,wr=%s E_leak=%s E_array=%s\n",
		unit.Joules(r.ESwRead), unit.Joules(r.ESwWrite), unit.Joules(r.ELeak), unit.Joules(r.EArray))
	fmt.Printf("  EDP=%.4g J·s  area=%.4g m²  PADP=%.4g J·s·m²\n", r.EDP, r.Area, r.PADP)
}

func printBreakdown(r *array.Result) {
	b := r.Parts
	fmt.Println("  read delay:")
	fmt.Printf("    row_dec=%s row_drv=%s WL=%s BL=%s | col_dec=%s col_drv=%s COL=%s | SA=%s PRE=%s\n",
		unit.Seconds(b.DRowDec), unit.Seconds(b.DRowDrv), unit.Seconds(b.DWLRead), unit.Seconds(b.DBLRead),
		unit.Seconds(b.DColDec), unit.Seconds(b.DColDrv), unit.Seconds(b.DCOL),
		unit.Seconds(b.DSenseAmp), unit.Seconds(b.DPreRead))
	fmt.Println("  write delay:")
	fmt.Printf("    WL=%s BL=%s cell=%s PRE=%s\n",
		unit.Seconds(b.DWLWrite), unit.Seconds(b.DBLWrite), unit.Seconds(b.DWriteCell), unit.Seconds(b.DPreWrite))
	fmt.Println("  read energy:")
	fmt.Printf("    row_dec=%s row_drv=%s WL=%s BL=%s SA=%s PRE=%s CVDD=%s CVSS=%s col=%s\n",
		unit.Joules(b.ERowDec), unit.Joules(b.ERowDrv), unit.Joules(b.EWLRead), unit.Joules(b.EBLRead),
		unit.Joules(b.ESenseAmp), unit.Joules(b.EPreRead), unit.Joules(b.ECVDD), unit.Joules(b.ECVSS),
		unit.Joules(b.EColDec+b.EColDrv+b.ECOL))
	fmt.Println("  write energy:")
	fmt.Printf("    WL=%s BL=%s cell=%s PRE=%s\n",
		unit.Joules(b.EWLWrite), unit.Joules(b.EBLWrite), unit.Joules(b.EWriteCell), unit.Joules(b.EPreWrite))
	fmt.Printf("  rail settling: CVDD=%s CVSS=%s (in time: %v)\n",
		unit.Seconds(b.DCVDD), unit.Seconds(b.DCVSS), r.RailsSettleInTime)
}

// compareDesign evaluates the -compare design spec against the optimum
// best: the spec's organization on best's rails, wordline segmentation,
// mux ratio and row-group assignment, under best's activity, with the
// flavor's alternate cell terms for the groups a hybrid assignment gives
// the other flavor.
func compareDesign(fw *core.Framework, flavor device.Flavor, spec string, bits int, best core.DesignPoint) (*array.Result, error) {
	cd, err := parseDesign(spec, bits, best.Design)
	if err != nil {
		return nil, err
	}
	return fw.Evaluate(flavor, cd, best.Result.Activity)
}

// parseDesign parses "NRxNC:Npre:Nwr:VSSCmV", inheriting everything else
// from base: the rails, the wordline segmentation, the mux ratio and the
// row-group assignment.
func parseDesign(s string, bits int, base array.Design) (array.Design, error) {
	var nr, nc, npre, nwr, vsscMV int
	if _, err := fmt.Sscanf(s, "%dx%d:%d:%d:%d", &nr, &nc, &npre, &nwr, &vsscMV); err != nil {
		return array.Design{}, fmt.Errorf("cannot parse design %q: %w", s, err)
	}
	if nr*nc != bits {
		return array.Design{}, fmt.Errorf("design %dx%d holds %d bits, want %d", nr, nc, nr*nc, bits)
	}
	w := 64
	if nc < w {
		w = nc
	}
	d := base
	d.Geom.NR, d.Geom.NC, d.Geom.W, d.Geom.Npre, d.Geom.Nwr = nr, nc, w, npre, nwr
	d.VSSC = float64(vsscMV) / 1000
	return d, nil
}
