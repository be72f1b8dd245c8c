// Package core implements the paper's contribution: the device-circuit-
// architecture co-optimization framework. Given an array capacity and a cell
// flavor, it pins the Vdd-boost and wordline-overdrive rails at the minimum
// levels that satisfy the yield constraint min(HSNM, RSNM, WM) ≥ δ, then
// exhaustively searches the remaining variables — negative-Gnd level V_SSC,
// row count n_r, precharger fins N_pre and write-buffer fins N_wr — for the
// design minimizing the energy-delay product (§4-§5).
//
// Two calibration modes are supported (DESIGN.md §2): TechPaper anchors
// cell-level quantities to the paper's published values for apples-to-apples
// reproduction of Table 4 / Fig. 7, while TechSimulated re-derives every
// quantity by running the bundled circuit simulator — the paper's own
// methodology executed end to end.
package core

import (
	"fmt"
	"math"
	"sync"

	"sramco/internal/array"
	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/lut"
	"sramco/internal/num"
	"sramco/internal/periph"
	"sramco/internal/wire"
)

// Mode selects how cell-level anchor quantities are obtained.
type Mode int

const (
	// TechPaper pins VDDC*, VWL*, cell leakage and the HVT read-current law
	// to the values published in the paper (§5), simulating only what the
	// paper does not publish (the write-delay LUT and the LVT current law's
	// threshold).
	TechPaper Mode = iota
	// TechSimulated derives every anchor by circuit simulation of the
	// compact device models: minimum-yield rail search, leakage operating
	// points, and read-current / write-delay LUT characterization.
	TechSimulated
)

func (m Mode) String() string {
	if m == TechSimulated {
		return "simulated"
	}
	return "paper-calibrated"
}

// Paper-published anchors (§5, Table 4).
const (
	paperVDDCStarLVT = 0.640
	paperVDDCStarHVT = 0.550
	paperVWLStarLVT  = 0.490
	paperVWLStarHVT  = 0.540
	paperLeakLVT     = 1.692e-9
	paperLeakHVT     = 0.082e-9
	paperIReadA      = 1.3    // HVT read-current exponent
	paperIReadB      = 9.5e-5 // HVT read-current coefficient (A/V^1.3)
	paperIReadVt     = 0.335  // HVT read-current threshold (V)
)

// Default workload and constraint constants (§5).
const (
	DefaultVdd     = device.Vdd
	DefaultDeltaVS = 0.120
	DefaultAlpha   = 0.5
	DefaultBeta    = 0.5
	DefaultW       = 64
	DefaultDCDC    = 1.25
)

// DefaultDelta returns the minimum acceptable noise margin δ = 0.35·Vdd.
func DefaultDelta(vdd float64) float64 { return 0.35 * vdd }

// CellChar holds the characterized (or paper-anchored) cell quantities for
// one flavor. It embeds the four terms the array model reads (LeakCell,
// IRead, WriteDelayCell, WriteEnergyCell), which ArrayTech and
// HybridAltTerms hand on as they are.
type CellChar struct {
	Flavor device.Flavor

	VDDCStar float64 // minimum VDDC meeting the RSNM yield requirement
	VWLStar  float64 // minimum write VWL meeting the WM yield requirement

	HSNM float64 // hold SNM at nominal Vdd

	array.FlavorTerms

	// RSNMAt reports the read SNM at (VDDCStar, vssc); used for the
	// feasibility constraint across the VSSC sweep.
	RSNMAt func(vssc float64) float64
}

// readStable reports whether the cell reads stably at vssc: its read SNM
// there meets δ, less 1 nV of slack for levels that meet it exactly. It is
// the read-stability rule of every searcher.
func (cc *CellChar) readStable(vssc, delta float64) bool { return cc.RSNMAt(vssc) >= delta-1e-9 }

// Framework is a fully characterized co-optimization context.
type Framework struct {
	Mode    Mode
	Vdd     float64
	DeltaVS float64
	Delta   float64 // minimum acceptable margin δ

	Periph *periph.Tech
	Caps   wire.DeviceCaps
	Cells  map[device.Flavor]*CellChar

	DCDC       float64
	Accounting array.EnergyAccounting
}

// FrameworkOpts tunes framework construction; zero values select the
// paper's defaults. The sense voltage ΔVs, the minimum margin δ and the
// DC-DC factor are always DefaultDeltaVS, DefaultDelta(Vdd) and DefaultDCDC.
type FrameworkOpts struct {
	Vdd        float64
	Accounting array.EnergyAccounting
}

// NewFramework characterizes the technology and both cell flavors under the
// given mode. Construction runs circuit simulations: the periphery and the
// two flavors characterize concurrently, in ~10 ms in TechPaper mode and
// ~25 ms in TechSimulated mode on 2 vCPUs. The result does not depend on
// the schedule, and where several characterizations fail the periphery's
// error is reported first, then LVT's, then HVT's.
func NewFramework(mode Mode, opts FrameworkOpts) (*Framework, error) {
	lib := device.Default7nm()
	vdd := opts.Vdd
	if vdd == 0 {
		vdd = DefaultVdd
	}
	delta := DefaultDelta(vdd)
	flavors := [2]device.Flavor{device.LVT, device.HVT}
	var cells [2]*CellChar
	var cellErrs [2]error
	var wg sync.WaitGroup
	for i, flavor := range flavors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i], cellErrs[i] = characterizeCell(lib, flavor, mode, vdd, delta)
		}()
	}
	p, err := periph.Characterize(lib, periph.CharacterizeOpts{Vdd: vdd, DeltaV: DefaultDeltaVS})
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("core: peripheral characterization: %w", err)
	}
	for i, err := range cellErrs {
		if err != nil {
			return nil, fmt.Errorf("core: characterizing 6T-%v: %w", flavors[i], err)
		}
	}
	return &Framework{
		Mode:    mode,
		Vdd:     vdd,
		DeltaVS: DefaultDeltaVS,
		Delta:   delta,
		Periph:  p,
		Caps: wire.DeviceCaps{
			Cdn: lib.NLVT.CdFin, Cdp: lib.PLVT.CdFin,
			Cgn: lib.NLVT.CgFin, Cgp: lib.PLVT.CgFin,
		},
		Cells:      map[device.Flavor]*CellChar{device.LVT: cells[0], device.HVT: cells[1]},
		DCDC:       DefaultDCDC,
		Accounting: opts.Accounting,
	}, nil
}

// cellGrids holds the knots of a flavor's characterization LUTs at one
// supply: characterizeCell builds each LUT on them, and Fingerprint samples
// each surface there.
type cellGrids struct {
	rail []float64 // VDDC of the read-current LUT, VWL of the write-delay LUT
	vssc []float64 // VSSC of the read-current LUT; it holds every RSNM knot
	rsnm []float64 // VSSC of the RSNM LUT (at VDDC*)
}

// gridsAt returns the characterization grids at supply vdd.
func gridsAt(vdd float64) cellGrids {
	return cellGrids{
		rail: num.Linspace(vdd, vdd+0.25, 6),
		vssc: num.Linspace(-0.26, 0, 7),
		rsnm: []float64{-0.26, -0.13, 0},
	}
}

// characterizeCell builds the CellChar for one flavor under a mode, supply
// and minimum margin δ.
func characterizeCell(lib *device.Library, flavor device.Flavor, mode Mode, vdd, delta float64) (*CellChar, error) {
	c := &cell.Cell{Lib: lib, Flavor: flavor}
	cc := &CellChar{Flavor: flavor}
	grids := gridsAt(vdd)

	hsnm, err := c.HoldSNM(vdd)
	if err != nil {
		return nil, err
	}
	cc.HSNM = hsnm

	// Cell write delay LUT (simulated in both modes; the paper publishes
	// only the single 1.5 ps no-assist number).
	wdTab, err := lut.Build1D(fmt.Sprintf("writeDelay-%v", flavor), grids.rail, func(vwl float64) (float64, error) {
		b := cell.NominalWrite(vdd)
		b.VWL = vwl
		return c.WriteDelay(b)
	})
	if err != nil {
		return nil, err
	}
	cc.WriteDelayCell = wdTab.Eval
	cc.WriteEnergyCell = 2 * c.StorageNodeCap() * vdd * vdd

	switch mode {
	case TechPaper:
		if flavor == device.LVT {
			cc.VDDCStar, cc.VWLStar, cc.LeakCell = paperVDDCStarLVT, paperVWLStarLVT, paperLeakLVT
			// The paper publishes no LVT current law; use the paper's
			// functional form with the calibrated LVT threshold, scaled to
			// the library's 2× ION relation at the nominal read condition.
			vtL := lib.NLVT.Vt0
			iHVTnom := paperIReadB * math.Pow(vdd-paperIReadVt, paperIReadA)
			bL := 2 * iHVTnom / math.Pow(vdd-vtL, paperIReadA)
			cc.IRead = func(vddc, vssc float64) float64 {
				return bL * math.Pow(math.Max(vddc-vssc-vtL, 1e-6), paperIReadA)
			}
		} else {
			cc.VDDCStar, cc.VWLStar, cc.LeakCell = paperVDDCStarHVT, paperVWLStarHVT, paperLeakHVT
			cc.IRead = func(vddc, vssc float64) float64 {
				return paperIReadB * math.Pow(math.Max(vddc-vssc-paperIReadVt, 1e-6), paperIReadA)
			}
		}
		// The paper establishes feasibility of the full VSSC range at the
		// starred rails (Fig. 3(b)-(c)); the margin is δ by construction at
		// VSSC = 0 and does not degrade above -240 mV.
		cc.RSNMAt = func(vssc float64) float64 { return delta }

	case TechSimulated:
		leak, err := c.LeakagePower(vdd)
		if err != nil {
			return nil, err
		}
		cc.LeakCell = leak
		// The rail search returns the read SNM at (VDDC*, VSSC = 0), the
		// RSNM table's top point below, from the probe that found VDDC*.
		vddcStar, rsnmStar, err := c.MinVDDCForReadSNM(cell.NominalRead(vdd), delta, vdd+0.30)
		if err != nil {
			return nil, err
		}
		cc.VDDCStar = vddcStar
		vwlStar, err := c.MinVWLForWriteMargin(cell.NominalWrite(vdd), delta, vdd+0.30)
		if err != nil {
			return nil, err
		}
		cc.VWLStar = vwlStar

		iTab, err := lut.Build2D(fmt.Sprintf("iread-%v", flavor), grids.rail, grids.vssc,
			func(vddc, vssc float64) (float64, error) {
				b := cell.ReadBias{Vdd: vdd, VDDC: vddc, VSSC: vssc, VWL: vdd}
				return c.ReadCurrent(b)
			})
		if err != nil {
			return nil, err
		}
		cc.IRead = iTab.Eval

		rsnmTab, err := lut.Build1D(fmt.Sprintf("rsnm-%v", flavor), grids.rsnm,
			func(vssc float64) (float64, error) {
				if vssc == 0 {
					return rsnmStar, nil
				}
				b := cell.ReadBias{Vdd: vdd, VDDC: cc.VDDCStar, VSSC: vssc, VWL: vdd}
				return c.ReadSNM(b)
			})
		if err != nil {
			return nil, err
		}
		cc.RSNMAt = rsnmTab.Eval

	default:
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	return cc, nil
}

// ArrayTech assembles the array-model technology view for one flavor.
func (f *Framework) ArrayTech(flavor device.Flavor) (*array.Tech, error) {
	t, err := f.arrayTech(flavor)
	if err != nil {
		return nil, err
	}
	return &t, nil
}

// arrayTech is ArrayTech by value: a caller whose Tech does not outlive the
// call keeps it off the heap. The view is built on every call, never kept,
// so a Framework's fields may change between calls.
func (f *Framework) arrayTech(flavor device.Flavor) (array.Tech, error) {
	cc, ok := f.Cells[flavor]
	if !ok {
		return array.Tech{}, fmt.Errorf("core: flavor %v not characterized", flavor)
	}
	return array.Tech{
		Periph:      f.Periph,
		Caps:        f.Caps,
		Vdd:         f.Vdd,
		DeltaVS:     f.DeltaVS,
		FlavorTerms: cc.FlavorTerms,
		DCDCFactor:  f.DCDC,
		Accounting:  f.Accounting,
	}, nil
}

// Evaluate runs the array model on one explicit design point of flavor. A
// hybrid design (Design.Groups set) assigns the row groups its GroupMask
// selects to flavor's alternate (LVT↔HVT) and evaluates the array under the
// per-group cell model. It allocates only its Result.
func (f *Framework) Evaluate(flavor device.Flavor, d array.Design, act array.Activity) (*array.Result, error) {
	tech, err := f.arrayTech(flavor)
	if err != nil {
		return nil, err
	}
	var alt array.FlavorTerms
	if d.Groups != 0 {
		if alt, err = f.HybridAltTerms(flavor); err != nil {
			return nil, err
		}
	}
	return array.EvaluateHybrid(&tech, d, act, alt)
}
