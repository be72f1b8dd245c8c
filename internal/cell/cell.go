// Package cell characterizes the 6T SRAM cell of the paper: static noise
// margins from butterfly curves (Seevinck's largest-embedded-square method),
// write margin and trip point, read current, leakage power, and cell-level
// write delay — all measured with the bundled circuit simulator, exactly as
// the paper measures them with SPICE.
//
// The cell is the all-single-fin 6T topology of Fig. 1(a): cross-coupled
// inverters (PU/PD) plus NFET access transistors (AX), with the cell supply
// (CVDD), cell ground (CVSS) and wordline (WL) rails switchable to assist
// levels per Fig. 4.
package cell

import (
	"fmt"

	"sramco/internal/circuit"
	"sramco/internal/device"
)

// Transistor enumerates the six cell transistors for per-device variation.
type Transistor int

const (
	PUL Transistor = iota // left pull-up (PFET)
	PDL                   // left pull-down (NFET)
	AXL                   // left access (NFET)
	PUR                   // right pull-up (PFET)
	PDR                   // right pull-down (NFET)
	AXR                   // right access (NFET)
	NumTransistors
)

var transistorNames = [...]string{"PUL", "PDL", "AXL", "PUR", "PDR", "AXR"}

func (t Transistor) String() string {
	if t < 0 || int(t) >= len(transistorNames) {
		return fmt.Sprintf("Transistor(%d)", int(t))
	}
	return transistorNames[t]
}

// Variation holds per-transistor threshold-voltage shifts (V) for Monte
// Carlo analysis. The zero value is the nominal cell.
type Variation [NumTransistors]float64

// Cell describes a 6T SRAM cell instance to characterize.
type Cell struct {
	Lib    *device.Library
	Flavor device.Flavor // flavor of the six cell transistors
	DVt    Variation
}

// New returns a nominal cell of the given flavor using the default library.
func New(f device.Flavor) *Cell {
	return &Cell{Lib: device.Default7nm(), Flavor: f}
}

// ForRegion returns a cell instance of flavor f sharing this cell's library
// and per-transistor variation — the per-region characterization hook of a
// hybrid array, where each row group may carry its own cell flavor.
func (c *Cell) ForRegion(f device.Flavor) *Cell {
	rc := *c
	rc.Flavor = f
	return &rc
}

// ReadBias is the rail condition during a read access (paper Fig. 4):
// BLs precharged to Vdd, wordline at VWL (= Vdd unless WL underdrive is being
// evaluated), cell rails at VDDC (boost) and VSSC (negative ground).
type ReadBias struct {
	Vdd  float64 // nominal supply / BL precharge level
	VDDC float64 // cell supply rail during read (≥ Vdd when boosted)
	VSSC float64 // cell ground rail during read (≤ 0 when negative-Gnd assist)
	VWL  float64 // wordline level during read
}

// NominalRead returns the no-assist read bias at supply vdd.
func NominalRead(vdd float64) ReadBias {
	return ReadBias{Vdd: vdd, VDDC: vdd, VSSC: 0, VWL: vdd}
}

// WriteBias is the rail condition during a write access: wordline at VWL
// (overdriven above Vdd for the WLOD assist), the written-0 bitline at VBL
// (negative for the negative-BL assist), cell rails nominal.
type WriteBias struct {
	Vdd float64
	VWL float64 // wordline level during write
	VBL float64 // level of the bitline driving the 0 (≤ 0 with negative-BL assist)
}

// NominalWrite returns the no-assist write bias at supply vdd.
func NominalWrite(vdd float64) WriteBias {
	return WriteBias{Vdd: vdd, VWL: vdd, VBL: 0}
}

func (c *Cell) n() *device.Model { return c.Lib.Model(device.NFET, c.Flavor) }
func (c *Cell) p() *device.Model { return c.Lib.Model(device.PFET, c.Flavor) }

// addHalf adds one half-cell (inverter + access transistor) with the given
// node names. side 0 is left (PUL/PDL/AXL), side 1 is right.
func (c *Cell) addHalf(ckt *circuit.Circuit, side int, in, out, cvdd, cvss, bl, wl string) {
	base := Transistor(side * 3)
	ckt.AddFET(circuit.FET{Name: "pu" + out, Model: c.p(), Fins: 1, DVt: c.DVt[base+PUL], D: out, G: in, S: cvdd})
	ckt.AddFET(circuit.FET{Name: "pd" + out, Model: c.n(), Fins: 1, DVt: c.DVt[base+PDL], D: out, G: in, S: cvss})
	ckt.AddFET(circuit.FET{Name: "ax" + out, Model: c.n(), Fins: 1, DVt: c.DVt[base+AXL], D: bl, G: wl, S: out})
}

// fullCell builds the complete 6T cell with independently forced rails.
// Returned circuit has sources: vcvdd, vcvss, vwl, vbl, vblb.
func (c *Cell) fullCell(cvdd, cvss, vwl, vbl, vblb float64) *circuit.Circuit {
	ckt := circuit.New()
	ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(cvdd))
	ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(cvss))
	ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(vwl))
	ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(vbl))
	ckt.AddV("vblb", "BLB", circuit.Ground, circuit.DC(vblb))
	c.addHalf(ckt, 0, "QB", "Q", "CVDD", "CVSS", "BL", "WL")
	c.addHalf(ckt, 1, "Q", "QB", "CVDD", "CVSS", "BLB", "WL")
	return ckt
}

// writeCell builds the full cell under write rails — CVDD = BLB = vdd,
// CVSS = 0, BL = vbl, wordline wl — with each storage node loaded by its
// capacitance and the cell holding '1' on Q.
func (c *Cell) writeCell(wl circuit.Waveform, vdd, vbl float64) *circuit.Circuit {
	ckt := c.fullCell(vdd, 0, 0, vbl, vdd)
	ckt.SetV("vwl", wl)
	cq := c.StorageNodeCap()
	ckt.AddC("cq", "Q", circuit.Ground, cq)
	ckt.AddC("cqb", "QB", circuit.Ground, cq)
	ckt.SetIC("Q", vdd)
	ckt.SetIC("QB", 0)
	return ckt
}

// StorageNodeCap returns the total capacitance loading one storage node
// (gate caps of the opposite inverter plus local drain junctions).
func (c *Cell) StorageNodeCap() float64 {
	return c.n().CgFin + c.p().CgFin + c.n().CdFin + c.p().CdFin + c.n().CdFin
}

// LeakagePower returns the standby leakage power (W) of the cell holding a
// '0' with WL off, rails nominal and both bitlines precharged to vdd — the
// quantity plotted in paper Fig. 2(b).
func (c *Cell) LeakagePower(vdd float64) (float64, error) {
	ckt := c.fullCell(vdd, 0, 0, vdd, vdd)
	ckt.SetIC("Q", 0)
	ckt.SetIC("QB", vdd)
	r, err := ckt.DCOperatingPoint()
	if err != nil {
		return 0, fmt.Errorf("cell: leakage operating point: %w", err)
	}
	p := vdd*r.SourceCurrent("vcvdd") + vdd*r.SourceCurrent("vbl") + vdd*r.SourceCurrent("vblb")
	// CVSS and WL sit at 0 V and deliver no power.
	if p < 0 {
		return 0, fmt.Errorf("cell: negative leakage power %g", p)
	}
	return p, nil
}

// ReadCurrent returns the cell read current (A): the current the cell sinks
// from the '0'-side bitline at the start of a read access under bias b.
func (c *Cell) ReadCurrent(b ReadBias) (float64, error) {
	ckt := c.fullCell(b.VDDC, b.VSSC, b.VWL, b.Vdd, b.Vdd)
	ckt.SetIC("Q", b.VSSC)
	ckt.SetIC("QB", b.VDDC)
	r, err := ckt.DCOperatingPoint()
	if err != nil {
		return 0, fmt.Errorf("cell: read-current operating point: %w", err)
	}
	// Confirm the read did not destroy the state (else the measured current
	// is meaningless).
	if r.V("Q") > r.V("QB") {
		return 0, fmt.Errorf("cell: cell flipped during read-current measurement (Q=%.3f, QB=%.3f)", r.V("Q"), r.V("QB"))
	}
	return r.SourceCurrent("vbl"), nil
}
