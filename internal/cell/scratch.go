package cell

import (
	"errors"

	"sramco/internal/device"
	"sramco/internal/obs"
)

// Scratch is the one workspace behind every cell margin: hold and read
// SNMs, the butterflies they come from, and the write trip and margin. It
// builds each netlist the first time a call needs it (the two half-cell VTC
// netlists on the first SNM or butterfly, the write netlist on the first
// write trip) and then re-solves it in place under each perturbation and
// rail bias, so a margin after the first allocates nothing. The Cell
// methods run on a fresh Scratch per call, MinVDDCForReadSNM on one for its
// whole search; the Monte Carlo engine keeps one per worker.
//
// A Scratch is not safe for concurrent use.
type Scratch struct {
	lib    *device.Library
	flavor device.Flavor
	vtc    *vtcSweeps  // half-cell VTC netlists
	wr     *writeProbe // write-trip probe on the full-cell write netlist
}

// NewScratch returns an empty workspace for cells of c's library and
// flavor. Each call passes its own per-transistor ΔVt; c.DVt is not read.
func NewScratch(c *Cell) (*Scratch, error) {
	if c.Lib == nil {
		return nil, errors.New("cell: NewScratch: nil device library")
	}
	return c.scratch(), nil
}

// scratch returns a fresh workspace for c's library and flavor.
func (c *Cell) scratch() *Scratch { return &Scratch{lib: c.Lib, flavor: c.Flavor} }

// sweeps returns the VTC netlists, building them on the first call.
func (s *Scratch) sweeps() *vtcSweeps {
	if s.vtc == nil {
		s.vtc = newVTCSweeps(s.lib, s.flavor)
	}
	return s.vtc
}

// HoldSNM returns the hold static noise margin (paper Fig. 2(a)) of the
// cell perturbed by dvt.
func (s *Scratch) HoldSNM(dvt Variation, vdd float64) (float64, error) {
	sp := obs.StartSpan("cell.hold_snm")
	mSNMExtractions.Inc()
	bf, err := s.sweeps().hold(dvt, vdd)
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

// ReadSNM returns the read static noise margin under bias b (paper Figs.
// 3(a)-(d)) of the cell perturbed by dvt.
func (s *Scratch) ReadSNM(dvt Variation, b ReadBias) (float64, error) {
	sp := obs.StartSpan("cell.read_snm")
	mSNMExtractions.Inc()
	bf, err := s.sweeps().read(dvt, b)
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

// writeTrip returns the trip wordline voltage of the cell perturbed by dvt
// under bias b (see Cell.WriteTripWL), building the write probe on the
// first call.
func (s *Scratch) writeTrip(dvt Variation, b WriteBias) (float64, error) {
	if s.wr == nil {
		s.wr = newWriteProbe(s.lib, s.flavor)
	}
	s.wr.load(dvt, b)
	return s.wr.trip(b.VWL)
}

// WriteMargin returns the write margin under bias b of the cell perturbed
// by dvt: VWL minus the trip wordline voltage (paper §3.2), or
// ErrWriteFail when the cell does not flip at full VWL.
func (s *Scratch) WriteMargin(dvt Variation, b WriteBias) (float64, error) {
	trip, err := s.writeTrip(dvt, b)
	if err != nil {
		return 0, err
	}
	return b.VWL - trip, nil
}
