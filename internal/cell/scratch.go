package cell

import (
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/obs"
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
// maps, and waveform records per sample. SNM results are bit-identical to
// the Cell methods; the write margin differs only by the trip tolerance
// above.
//
// A Scratch is not safe for concurrent use; the Monte Carlo engine keeps one
// per worker.
type Scratch struct {
	cell Cell // copy with zeroed DVt; flavor and library are fixed

	vtc   [2]*circuit.Circuit // half-cell VTC netlists, side 0 (left) and 1 (right)
	sweep [2]*circuit.Sweeper

	wr *writeProbe // write-trip probe on the full-cell write netlist

	xs, ysA, ysB []float64 // sweep buffers (vtcPoints long)
}

// NewScratch builds the reusable netlists for cells of c's library and
// flavor. Per-sample ΔVt arrives via the method arguments, not c.DVt.
func NewScratch(c *Cell) (*Scratch, error) {
	s := &Scratch{cell: Cell{Lib: c.Lib, Flavor: c.Flavor}}
	for side := 0; side < 2; side++ {
		ckt := circuit.New()
		ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(0))
		ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(0))
		ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vin", "IN", circuit.Ground, circuit.DC(0))
		s.cell.addHalf(ckt, side, "IN", "OUT", "CVDD", "CVSS", "BL", "WL")
		sw, err := ckt.NewSweeper("vin", "OUT")
		if err != nil {
			return nil, err
		}
		s.vtc[side] = ckt
		s.sweep[side] = sw
	}

	s.wr = newWriteProbe(c.Lib, c.Flavor)

	s.xs = make([]float64, vtcPoints)
	s.ysA = make([]float64, vtcPoints)
	s.ysB = make([]float64, vtcPoints)
	return s, nil
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

// halfVTC sweeps one prebuilt half-cell under the given rails into ys,
// mirroring Cell.halfVTC's numerics exactly.
func (s *Scratch) halfVTC(side int, dvt Variation, cvdd, cvss, bl, wl, lo, hi float64, ys []float64) (*VTC, error) {
	ckt := s.vtc[side]
	setHalfDVt(ckt, side, "OUT", dvt)
	ckt.SetV("vcvdd", circuit.DC(cvdd))
	ckt.SetV("vcvss", circuit.DC(cvss))
	ckt.SetV("vwl", circuit.DC(wl))
	ckt.SetV("vbl", circuit.DC(bl))
	ckt.SetV("vin", circuit.DC(lo))
	ckt.SetIC("OUT", cvdd)

	mVTCSweeps.Inc()
	linspaceInto(s.xs, lo, hi)
	if err := s.sweep[side].Sweep(s.xs, ys); err != nil {
		return nil, fmt.Errorf("cell: VTC sweep (side %d): %w", side, err)
	}
	return &VTC{X: s.xs, Y: ys}, nil
}

// butterfly builds the butterfly under explicit rails; the flip of side B
// allocates its own storage, so the returned butterfly does not alias ysB.
func (s *Scratch) butterfly(dvt Variation, cvdd, cvss, bl, wl, lo, hi float64) (*Butterfly, error) {
	a, err := s.halfVTC(0, dvt, cvdd, cvss, bl, wl, lo, hi, s.ysA)
	if err != nil {
		return nil, err
	}
	bRaw, err := s.halfVTC(1, dvt, cvdd, cvss, bl, wl, lo, hi, s.ysB)
	if err != nil {
		return nil, err
	}
	return &Butterfly{A: a, B: bRaw.flip()}, nil
}

// HoldSNM returns the hold static noise margin of the perturbed cell,
// bit-identical to Cell.HoldSNM with c.DVt = dvt.
func (s *Scratch) HoldSNM(dvt Variation, vdd float64) (float64, error) {
	sp := obs.StartSpan("cell.hold_snm")
	mSNMExtractions.Inc()
	bf, err := s.butterfly(dvt, vdd, 0, vdd, 0, 0, vdd)
	if err != nil {
		return 0, err
	}
	snm, err := bf.SNM()
	if err == nil {
		sp.Float("snm", snm)
		sp.End()
	}
	return snm, err
}

// ReadSNM returns the read static noise margin of the perturbed cell under
// bias b, bit-identical to Cell.ReadSNM with c.DVt = dvt.
func (s *Scratch) ReadSNM(dvt Variation, b ReadBias) (float64, error) {
	sp := obs.StartSpan("cell.read_snm")
	mSNMExtractions.Inc()
	lo, hi := math.Min(b.VSSC, 0), math.Max(b.VDDC, b.Vdd)
	bf, err := s.butterfly(dvt, b.VDDC, b.VSSC, b.Vdd, b.VWL, lo, hi)
	if err != nil {
		return 0, err
	}
	snm, err := bf.SNM()
	if err == nil {
		sp.Float("vddc", b.VDDC)
		sp.Float("vssc", b.VSSC)
		sp.Float("snm", snm)
		sp.End()
	}
	return snm, err
}

// WriteMargin returns the write margin of the perturbed cell under bias b:
// VWL minus the trip wordline voltage, found on the reusable write netlist
// by the same bisection as Cell.WriteTripWL, stopped once the interval is
// writeTripTolV wide. Semantics match Cell.WriteMargin (including
// ErrWriteFail when the cell does not flip at full VWL); the trip differs
// from the 28-step bisection by at most writeTripTolV/2.
func (s *Scratch) WriteMargin(dvt Variation, b WriteBias) (float64, error) {
	s.wr.load(dvt, b)
	trip, err := s.wr.trip(b.VWL, writeTripTolV)
	if err != nil {
		return 0, err
	}
	return b.VWL - trip, nil
}
