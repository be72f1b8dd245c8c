// Package wire models the interconnect capacitances of the SRAM array,
// implementing Table 1 of the paper together with its layout-derived wire
// constants: a 43 nm metal pitch (7 nm FinFET, scaled from Intel 14 nm) and
// an ITRS-2012 wire capacitance of 0.17 fF/µm.
package wire

import (
	"fmt"
	"math/bits"
)

// Process wire constants (paper §5).
const (
	PMetal = 43e-9           // metal pitch (m)
	Cw     = 0.17e-15 / 1e-6 // wire capacitance per metre (F/m)
)

// CellWidth and CellHeight are the 6T cell dimensions implied by the layout
// of Fig. 1(b): the cell spans 5 metal pitches horizontally, and its height
// is 0.4× its width (the paper's C_height = 0.4·C_width relation).
const (
	CellWidth  = 5 * PMetal
	CellHeight = 0.4 * CellWidth
)

// CWidth returns the wire capacitance across one cell width (the per-cell
// contribution to horizontal wires: WL, CVDD, CVSS, COL).
func CWidth() float64 { return CellWidth * Cw }

// CHeight returns the wire capacitance across one cell height (the per-cell
// contribution to vertical wires: BL).
func CHeight() float64 { return CellHeight * Cw }

// DeviceCaps carries the per-fin FinFET capacitances entering Table 1.
type DeviceCaps struct {
	Cdn float64 // drain capacitance, n-channel, per fin
	Cdp float64 // drain capacitance, p-channel, per fin
	Cgn float64 // gate capacitance, n-channel, per fin
	Cgp float64 // gate capacitance, p-channel, per fin
}

// Validate reports an error when any capacitance is non-positive.
func (d DeviceCaps) Validate() error {
	if d.Cdn <= 0 || d.Cdp <= 0 || d.Cgn <= 0 || d.Cgp <= 0 {
		return fmt.Errorf("wire: non-positive device capacitance: %+v", d)
	}
	return nil
}

// Geometry is the array organization (paper §4): n_r rows × n_c columns,
// W bits accessed per cycle, and the precharger / write-buffer fin counts.
//
// WLSegs extends the paper's flat wordline with a divided-wordline (DWL)
// hierarchy: a global wordline spans the row and per-segment AND gates
// drive local wordlines, so only n_c/WLSegs cells see the access disturb.
// WLSegs 0 or 1 selects the paper's flat organization; Validate rejects a
// negative count.
type Geometry struct {
	NR   int // number of rows (power of two)
	NC   int // number of columns (power of two)
	W    int // access width in bits
	Npre int // precharger PFET fins
	Nwr  int // write-buffer fins

	WLSegs int // wordline segments (0/1 = flat; else a power of two)

	// Mux is the sense-amp sharing ratio: Mux accessed columns share one
	// sense amplifier through an output column multiplexer, so the array
	// carries W/Mux sense amps plus W·Mux transmission gates. 0 (or 1)
	// selects the paper's organization of one sense amp per accessed bit.
	// The omitempty tag keeps the degenerate encoding byte-identical to
	// designs that predate the field.
	Mux int `json:",omitempty"`
}

// Segments returns the normalized wordline segment count (≥ 1).
func (g Geometry) Segments() int {
	if g.WLSegs < 1 {
		return 1
	}
	return g.WLSegs
}

// MuxRatio returns the normalized sense-amp sharing ratio (≥ 1).
func (g Geometry) MuxRatio() int {
	if g.Mux < 2 {
		return 1
	}
	return g.Mux
}

// Bits returns the array capacity in bits (M = n_r · n_c).
func (g Geometry) Bits() int { return g.NR * g.NC }

// Muxed reports whether a column multiplexer is needed (n_c > W).
func (g Geometry) Muxed() bool { return g.NC > g.W }

// Validate checks the paper's structural constraints.
func (g Geometry) Validate() error {
	if g.NR < 2 || bits.OnesCount(uint(g.NR)) != 1 {
		return fmt.Errorf("wire: n_r = %d must be a power of two ≥ 2", g.NR)
	}
	if g.NC < 1 || bits.OnesCount(uint(g.NC)) != 1 {
		return fmt.Errorf("wire: n_c = %d must be a power of two ≥ 1", g.NC)
	}
	if g.W < 1 || bits.OnesCount(uint(g.W)) != 1 {
		return fmt.Errorf("wire: W = %d must be a power of two ≥ 1", g.W)
	}
	if g.NC < g.W {
		return fmt.Errorf("wire: n_c = %d must be ≥ W = %d", g.NC, g.W)
	}
	if g.Npre < 1 {
		return fmt.Errorf("wire: N_pre = %d must be ≥ 1", g.Npre)
	}
	if g.Nwr < 1 {
		return fmt.Errorf("wire: N_wr = %d must be ≥ 1", g.Nwr)
	}
	if g.WLSegs < 0 {
		return fmt.Errorf("wire: WLSegs = %d must be ≥ 0", g.WLSegs)
	}
	if s := g.Segments(); s > 1 {
		if bits.OnesCount(uint(s)) != 1 {
			return fmt.Errorf("wire: WLSegs = %d must be a power of two", s)
		}
		if g.NC/s < g.W {
			return fmt.Errorf("wire: segment width %d below access width %d", g.NC/s, g.W)
		}
	}
	if g.Mux < 0 {
		return fmt.Errorf("wire: Mux = %d must be ≥ 0", g.Mux)
	}
	if m := g.MuxRatio(); m > 1 {
		if bits.OnesCount(uint(m)) != 1 {
			return fmt.Errorf("wire: Mux = %d must be a power of two", m)
		}
		if m > g.W {
			return fmt.Errorf("wire: Mux = %d exceeds access width %d", m, g.W)
		}
	}
	return nil
}

// railDriverFins is the fixed fin count of the CVDD/CVSS rail drivers
// (paper: 20 fins, sized for n_c = 1024).
const railDriverFins = 20

// wlDriverFins is the fixed fin count of the last WL/COL driver stage
// (Table 1: 27·(C_dn + C_dp)).
const wlDriverFins = 27

// CVDD returns the cell-Vdd rail capacitance (Table 1):
// n_c(C_width + 2C_dp) + 2·20·C_dp.
func CVDD(g Geometry, d DeviceCaps) float64 {
	return float64(g.NC)*(CWidth()+2*d.Cdp) + 2*railDriverFins*d.Cdp
}

// CVSS returns the cell-ground rail capacitance (Table 1):
// n_c(C_width + 2C_dn) + 2·20·C_dn.
func CVSS(g Geometry, d DeviceCaps) float64 {
	return float64(g.NC)*(CWidth()+2*d.Cdn) + 2*railDriverFins*d.Cdn
}

// WL returns the flat wordline capacitance (Table 1):
// n_c(C_width + 2C_gn) + 27(C_dn + C_dp).
func WL(g Geometry, d DeviceCaps) float64 {
	return float64(g.NC)*(CWidth()+2*d.Cgn) + wlDriverFins*(d.Cdn+d.Cdp)
}

// lwlDriverFins is the fin count of each local-wordline AND driver in the
// divided-wordline organization.
const lwlDriverFins = 8

// GWL returns the global wordline capacitance of a divided-wordline row:
// the wire spans all n_c columns but loads only one AND-gate input per
// segment instead of two access gates per cell.
func GWL(g Geometry, d DeviceCaps) float64 {
	return float64(g.NC)*CWidth() + float64(g.Segments())*2*(d.Cgn+d.Cgp) +
		wlDriverFins*(d.Cdn+d.Cdp)
}

// LWL returns the local wordline capacitance of one segment: the access
// gates of n_c/WLSegs cells plus its local driver drain.
func LWL(g Geometry, d DeviceCaps) float64 {
	cols := float64(g.NC / g.Segments())
	return cols*(CWidth()+2*d.Cgn) + lwlDriverFins*(d.Cdn+d.Cdp)
}

// LWLDriverFins exposes the local driver sizing for the array model.
func LWLDriverFins() int { return lwlDriverFins }

// COL returns the column-select line capacitance (Table 1): zero when no
// column multiplexer is needed, else
// n_c·C_width + 27(C_dn + C_dp) + 2·W·N_wr(C_gn + C_gp).
func COL(g Geometry, d DeviceCaps) float64 {
	if !g.Muxed() {
		return 0
	}
	return float64(g.NC)*CWidth() + wlDriverFins*(d.Cdn+d.Cdp) +
		2*float64(g.W)*float64(g.Nwr)*(d.Cgn+d.Cgp)
}

// BL returns the bitline capacitance (Table 1). Without a column mux the
// write buffer connects directly (one TG worth of drain); with a mux the
// write path goes through two transmission gates.
//
// BL is composed from BLFixed plus the precharger and write-buffer drain
// terms, in exactly that order, so an evaluator that amortizes BLFixed
// across an (N_pre, N_wr) sweep reproduces BL bit-for-bit.
func BL(g Geometry, d DeviceCaps) float64 {
	base := BLFixed(g, d) + float64(g.Npre+1)*d.Cdp
	if !g.Muxed() {
		return base + float64(g.Nwr)*(d.Cdn+d.Cdp) + d.Cdp
	}
	return base + 2*float64(g.Nwr)*(d.Cdn+d.Cdp)
}

// BLFixed returns the part of the bitline capacitance that is independent of
// the precharger and write-buffer fin counts: the cell drains and wire of
// the n_r rows, n_r(C_height + C_dn).
func BLFixed(g Geometry, d DeviceCaps) float64 {
	return float64(g.NR) * (CHeight() + d.Cdn)
}

// COLFixed returns the part of the column-select capacitance that is
// independent of N_wr: the wire spanning the array plus the driver drain,
// n_c·C_width + 27(C_dn + C_dp). Zero when no column multiplexer is needed.
func COLFixed(g Geometry, d DeviceCaps) float64 {
	if !g.Muxed() {
		return 0
	}
	return float64(g.NC)*CWidth() + wlDriverFins*(d.Cdn+d.Cdp)
}

// MuxSel returns the sense-amp-sharing select-line capacitance: a wire
// spanning the W accessed columns loading one transmission-gate pair per
// shared sense amp, driven by a last-stage driver like WL/COL. Zero when no
// sense amps are shared (MuxRatio ≤ 1).
func MuxSel(g Geometry, d DeviceCaps) float64 {
	m := g.MuxRatio()
	if m <= 1 {
		return 0
	}
	return float64(g.W)*CWidth() + 2*float64(g.W/m)*(d.Cgn+d.Cgp) +
		wlDriverFins*(d.Cdn+d.Cdp)
}

// FinArea is the layout area charged per peripheral fin: a 2×4 metal-pitch
// footprint (one fin plus its contacts and isolation).
const FinArea = (2 * PMetal) * (4 * PMetal)

// saFins is the fin count charged per sense amplifier (cross-coupled pair,
// precharge devices and output latch).
const saFins = 16

// muxTGFins is the fin count of one output-mux transmission gate.
const muxTGFins = 2

// MuxArea returns the layout area of the output column multiplexer: W·mux
// transmission gates of muxTGFins fins each. Zero when no sense amps are
// shared.
func MuxArea(w, mux int) float64 {
	if mux <= 1 {
		return 0
	}
	return float64(w) * float64(mux) * muxTGFins * FinArea
}

// Area returns the layout area of the array (m²): the cell matrix plus row
// drivers, rail drivers, sense amps, output mux, prechargers and write
// buffers. It is composed as
// (AreaBase + N_pre·AreaPreUnit) + N_wr·AreaWrUnit — in exactly that order —
// so an evaluator that amortizes the N_pre/N_wr-invariant prefix across a
// sweep reproduces Area bit-for-bit.
func Area(g Geometry) float64 {
	return (AreaBase(g) + float64(g.Npre)*AreaPreUnit(g)) + float64(g.Nwr)*AreaWrUnit(g)
}

// AreaBase returns the N_pre/N_wr-independent part of Area: cells, row
// drivers, rail drivers, sense amps and the output mux, summed as
// ((((cells+rows)+rails)+sa)+mux).
func AreaBase(g Geometry) float64 {
	drv := wlDriverFins
	if s := g.Segments(); s > 1 {
		drv += s * lwlDriverFins
	}
	m := g.MuxRatio()
	cells := float64(g.NR) * float64(g.NC) * CellWidth * CellHeight
	rows := float64(g.NR) * float64(drv) * FinArea
	rails := 4 * railDriverFins * FinArea
	sa := float64(g.W/m) * saFins * FinArea
	mux := MuxArea(g.W, m)
	return (((cells + rows) + rails) + sa) + mux
}

// AreaPreUnit returns the area added per precharger fin: one fin per column.
func AreaPreUnit(g Geometry) float64 { return float64(g.NC) * FinArea }

// AreaWrUnit returns the area added per write-buffer fin: two fins (the
// transmission-gate pair) per accessed bit.
func AreaWrUnit(g Geometry) float64 { return float64(g.W) * 2 * FinArea }
