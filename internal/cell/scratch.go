package cell

import (
	"sramco/internal/circuit"
	"sramco/internal/device"
)

// writeTripTolV is the wordline-interval width at which the scratch-path
// write-trip bisection stops. The naive WriteTripWL runs a fixed 28
// iterations (interval ~2 nV) because the rail searches built on it pin
// results to a 10 mV grid; the Monte Carlo path only needs the trip well
// below the ΔVt-induced write-margin spread (σ_WM ~ tens of mV), so it stops
// at 0.5 mV — trip error ≤ 0.25 mV — and saves ~17 transient probes per
// sample.
const writeTripTolV = 0.5e-3

// Scratch is a reusable per-worker evaluator for the three Monte Carlo cell
// metrics. It builds each netlist once and re-solves it under new ΔVt
// perturbations and rail biases via SetFETDVt/SetV, reusing the circuit
// package's Newton workspaces instead of reconstructing circuits, result
// maps, and waveform records per sample. Its SNMs run the same VTC sweeps
// as the Cell methods; its write margin differs from Cell.WriteMargin only
// by the trip tolerance above.
//
// A Scratch is not safe for concurrent use; the Monte Carlo engine keeps one
// per worker.
type Scratch struct {
	lib    *device.Library
	flavor device.Flavor
	vtc    *vtcSweeps  // half-cell VTC netlists
	wr     *writeProbe // write-trip probe on the full-cell write netlist; built on the first WriteMargin
}

// NewScratch builds the reusable netlists for cells of c's library and
// flavor. Per-sample ΔVt arrives via the method arguments, not c.DVt. The
// write netlist waits for the first WriteMargin call, so a Scratch that only
// extracts SNMs never builds it.
func NewScratch(c *Cell) (*Scratch, error) {
	v, err := newVTCSweeps(c.Lib, c.Flavor)
	if err != nil {
		return nil, err
	}
	return &Scratch{lib: c.Lib, flavor: c.Flavor, vtc: v}, nil
}

// setHalfDVt loads one side's ΔVt triple into a netlist built by addHalf
// with output node out.
func setHalfDVt(ckt *circuit.Circuit, side int, out string, dvt Variation) {
	base := Transistor(side * 3)
	ckt.SetFETDVt("pu"+out, dvt[base+PUL])
	ckt.SetFETDVt("pd"+out, dvt[base+PDL])
	ckt.SetFETDVt("ax"+out, dvt[base+AXL])
}

// linspaceInto fills dst exactly like num.Linspace(lo, hi, len(dst)).
func linspaceInto(dst []float64, lo, hi float64) {
	n := len(dst)
	step := (hi - lo) / float64(n-1)
	for i := range dst {
		dst[i] = lo + float64(i)*step
	}
	dst[n-1] = hi
}

// HoldSNM returns the hold static noise margin of the perturbed cell,
// Cell.HoldSNM with c.DVt = dvt.
func (s *Scratch) HoldSNM(dvt Variation, vdd float64) (float64, error) {
	return s.vtc.holdSNM(dvt, vdd)
}

// ReadSNM returns the read static noise margin of the perturbed cell under
// bias b, Cell.ReadSNM with c.DVt = dvt.
func (s *Scratch) ReadSNM(dvt Variation, b ReadBias) (float64, error) {
	return s.vtc.readSNM(dvt, b)
}

// WriteMargin returns the write margin of the perturbed cell under bias b:
// VWL minus the trip wordline voltage, found on the reusable write netlist
// by the same bisection as Cell.WriteTripWL, stopped once the interval is
// writeTripTolV wide. Semantics match Cell.WriteMargin (including
// ErrWriteFail when the cell does not flip at full VWL); the trip differs
// from the 28-step bisection by at most writeTripTolV/2.
func (s *Scratch) WriteMargin(dvt Variation, b WriteBias) (float64, error) {
	if s.wr == nil {
		s.wr = newWriteProbe(s.lib, s.flavor)
	}
	s.wr.load(dvt, b)
	trip, err := s.wr.trip(b.VWL, writeTripTolV)
	if err != nil {
		return 0, err
	}
	return b.VWL - trip, nil
}
