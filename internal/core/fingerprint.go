package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"math"

	"sramco/internal/device"
)

// Fingerprint returns a stable digest of every model input that shapes a
// search result: the calibration mode, the workload and constraint
// constants, the peripheral characterization, the wire capacitances, and
// each flavor's cell characterization — scalars plus the IRead, WriteDelay
// and RSNMAt surfaces sampled on the characterization grids. Two frameworks
// with equal fingerprints run bit-identical searches, so the fingerprint
// versions the precomputed design-space catalog (DESIGN.md §9): any change
// to a device parameter, a model constant or the calibration mode changes
// the digest and invalidates catalogs built against the old technology.
func (f *Framework) Fingerprint() [32]byte {
	h := sha256.New()
	writeF := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "sramco-fingerprint-v1|mode=%d|acct=%d|", f.Mode, f.Accounting)
	writeF(f.Vdd, f.DeltaVS, f.Delta, f.DCDC)
	writeF(f.Periph.Vdd, f.Periph.Tau, f.Periph.PInv, f.Periph.SADelay, f.Periph.SAEnergy)
	writeF(f.Caps.Cdn, f.Caps.Cdp, f.Caps.Cgn, f.Caps.Cgp)

	// Sample the per-flavor model functions on the grids the framework was
	// characterized over; the closures themselves cannot be hashed, but on
	// these grids they determine the LUT (or law) everywhere.
	grids := gridsAt(f.Vdd)
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		cc, ok := f.Cells[flavor]
		if !ok {
			fmt.Fprintf(h, "|cell=%v:absent|", flavor)
			continue
		}
		fmt.Fprintf(h, "|cell=%v|", flavor)
		writeF(cc.VDDCStar, cc.VWLStar, cc.HSNM, cc.LeakCell, cc.WriteEnergyCell)
		for _, vddc := range grids.rail {
			for _, vssc := range grids.vssc {
				writeF(cc.IRead(vddc, vssc))
			}
		}
		for _, vwl := range grids.rail {
			writeF(cc.WriteDelayCell(vwl))
		}
		// The read-current VSSC levels hold every RSNM knot.
		for _, vssc := range grids.vssc {
			writeF(cc.RSNMAt(vssc))
		}
	}
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}
