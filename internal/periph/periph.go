// Package periph models the SRAM array's peripheral circuits (paper Fig. 6):
// row/column decoders, wordline superbuffer drivers, precharger, write
// buffer, sense amplifier, and the assist-rail multiplexers/drivers.
//
// Delay models follow the paper's methodology: the decoder and driver chains
// are derived analytically (logical effort) from a base inverter time
// constant that is *characterized with the bundled circuit simulator*, and
// the sense amplifier is characterized directly by transient simulation —
// "derived analytically and verified by SPICE simulations" (§4).
//
// All peripheral devices are LVT (§2), regardless of the cell flavor.
package periph

import (
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/wire"
)

// Fixed driver fin counts from the paper.
const (
	RailDriverFins = 20 // CVDD/CVSS rail drivers (sized for n_c = 1024)
	WLDriverFins   = 27 // last stage of the WL/COL superbuffer
	DriverStages   = 4  // inverter stages per superbuffer ("four inverter stages")
)

// Logical-effort constants: NAND-k logical effort (k+2)/3 and parasitic
// delay ≈ k in inverter units.
func nandEffort(k int) float64    { return float64(k+2) / 3 }
func nandParasitic(k int) float64 { return float64(k) }

// Tech is a characterized peripheral technology: the LVT base inverter time
// constant plus the device library and supply it was characterized at.
type Tech struct {
	Lib *device.Library
	Vdd float64

	Tau  float64 // inverter delay per unit electrical effort (s)
	PInv float64 // inverter parasitic delay, in Tau units

	SADelay  float64 // sense amplifier resolution delay at ΔVs (s)
	SAEnergy float64 // sense amplifier switching energy per operation (J)
}

// CharacterizeOpts configures technology characterization.
type CharacterizeOpts struct {
	Vdd    float64 // supply; defaults to device.Vdd
	DeltaV float64 // sense voltage ΔVs; defaults to 0.120 V (paper §5)
}

// Characterize measures the base inverter time constant and the sense
// amplifier with the circuit simulator.
func Characterize(lib *device.Library, opts CharacterizeOpts) (*Tech, error) {
	if lib == nil {
		return nil, fmt.Errorf("periph: nil library")
	}
	vdd := opts.Vdd
	if vdd == 0 {
		vdd = device.Vdd
	}
	dv := opts.DeltaV
	if dv == 0 {
		dv = 0.120
	}
	t := &Tech{Lib: lib, Vdd: vdd}

	// Inverter characterization: measure the 50%-to-50% delay of a 1-fin LVT
	// inverter driving h unit gate loads, for h = 1 and h = 4; solve
	// d = Tau·(h + PInv).
	d1, err := t.inverterDelay(1)
	if err != nil {
		return nil, fmt.Errorf("periph: FO1 characterization: %w", err)
	}
	d4, err := t.inverterDelay(4)
	if err != nil {
		return nil, fmt.Errorf("periph: FO4 characterization: %w", err)
	}
	t.Tau = (d4 - d1) / 3
	if t.Tau <= 0 {
		return nil, fmt.Errorf("periph: non-positive tau (d1=%g, d4=%g)", d1, d4)
	}
	t.PInv = d1/t.Tau - 1
	if t.PInv < 0 {
		t.PInv = 0
	}

	if err := t.characterizeSenseAmp(dv); err != nil {
		return nil, err
	}
	return t, nil
}

// unitInputCap returns the input capacitance of a 1-fin inverter.
func (t *Tech) unitInputCap() float64 {
	return t.Lib.NLVT.CgFin + t.Lib.PLVT.CgFin
}

// inverterDelay simulates a 1-fin LVT inverter driving h unit loads and
// returns the average of the rising and falling 50%-to-50% delays. The
// transient watches the four crossings in turn and stops at the last: out
// rising after in falls.
func (t *Tech) inverterDelay(h float64) (float64, error) {
	const (
		tEdge = 20e-12
		rise  = 1e-12
		tStop = 220e-12
		dt    = 0.1e-12
	)
	ckt := circuit.New()
	ckt.AddV("vdd", "VDD", circuit.Ground, circuit.DC(t.Vdd))
	ckt.AddV("vin", "in", circuit.Ground, circuit.NewPWL(
		circuit.PWLPoint{T: 0, V: 0},
		circuit.PWLPoint{T: tEdge, V: 0},
		circuit.PWLPoint{T: tEdge + rise, V: t.Vdd},
		circuit.PWLPoint{T: tStop / 2, V: t.Vdd},
		circuit.PWLPoint{T: tStop/2 + rise, V: 0},
	))
	ckt.AddFET(circuit.FET{Name: "mp", Model: t.Lib.PLVT, Fins: 1, D: "out", G: "in", S: "VDD"})
	ckt.AddFET(circuit.FET{Name: "mn", Model: t.Lib.NLVT, Fins: 1, D: "out", G: "in", S: circuit.Ground})
	// Load: h unit gate caps plus the inverter's own drain parasitics.
	ckt.AddC("cload", "out", circuit.Ground, h*t.unitInputCap())
	ckt.AddC("cpar", "out", circuit.Ground, t.Lib.NLVT.CdFin+t.Lib.PLVT.CdFin)
	tr := ckt.NewTranRunner()
	half := t.Vdd / 2
	inRise := tr.Watch("in", circuit.Ground, half, circuit.RisingEdge)
	outFall := tr.Watch("out", circuit.Ground, half, circuit.FallingEdge)
	inFall := tr.Watch("in", circuit.Ground, half, circuit.FallingEdge)
	outRise := tr.Watch("out", circuit.Ground, half, circuit.RisingEdge)
	edges := []*circuit.Watcher{inRise, outFall, inFall, outRise}
	if err := tr.Run(circuit.TranOpts{TStop: tStop, DT: dt}, circuit.Chain(edges...)); err != nil {
		return 0, err
	}
	for _, w := range edges {
		if err := w.Err(); err != nil {
			return 0, err
		}
	}
	return ((outFall.At - inRise.At) + (outRise.At - inFall.At)) / 2, nil
}

// characterizeSenseAmp simulates a latch-type sense amplifier: a
// cross-coupled inverter pair (2-fin devices) whose internal nodes start at
// the precharge level split by ΔVs, enabled through a 2-fin footer. The
// delay is the time for the low-going node to fall below 10% of Vdd. The
// transient watches both crossings but runs its whole window, whose final
// state the resolution check reads.
func (t *Tech) characterizeSenseAmp(deltaV float64) error {
	const (
		tEn   = 2e-12
		rise  = 1e-12
		tStop = 300e-12
		dt    = 0.1e-12
	)
	// Internal node loading: local drains plus output mux/buffer gates.
	cNode := 2*(t.Lib.NLVT.CdFin+t.Lib.PLVT.CdFin) + 4*t.unitInputCap()

	ckt := circuit.New()
	ckt.AddV("vdd", "VDD", circuit.Ground, circuit.DC(t.Vdd))
	ckt.AddV("ven", "en", circuit.Ground, circuit.Step(0, t.Vdd, tEn, rise))
	ckt.AddFET(circuit.FET{Name: "mpa", Model: t.Lib.PLVT, Fins: 2, D: "sa", G: "sb", S: "VDD"})
	ckt.AddFET(circuit.FET{Name: "mna", Model: t.Lib.NLVT, Fins: 2, D: "sa", G: "sb", S: "foot"})
	ckt.AddFET(circuit.FET{Name: "mpb", Model: t.Lib.PLVT, Fins: 2, D: "sb", G: "sa", S: "VDD"})
	ckt.AddFET(circuit.FET{Name: "mnb", Model: t.Lib.NLVT, Fins: 2, D: "sb", G: "sa", S: "foot"})
	ckt.AddFET(circuit.FET{Name: "mfoot", Model: t.Lib.NLVT, Fins: 2, D: "foot", G: "en", S: circuit.Ground})
	ckt.AddC("ca", "sa", circuit.Ground, cNode)
	ckt.AddC("cb", "sb", circuit.Ground, cNode)
	ckt.AddC("cf", "foot", circuit.Ground, t.Lib.NLVT.CdFin*4)
	ckt.SetIC("sa", t.Vdd-deltaV) // the side sensing the discharged bitline
	ckt.SetIC("sb", t.Vdd)
	ckt.SetIC("foot", t.Vdd-deltaV)
	tr := ckt.NewTranRunner()
	enHalf := tr.Watch("en", circuit.Ground, t.Vdd/2, circuit.RisingEdge)
	low := tr.Watch("sa", circuit.Ground, 0.1*t.Vdd, circuit.FallingEdge)
	watch := circuit.Chain(enHalf, low)
	err := tr.Run(circuit.TranOpts{TStop: tStop, DT: dt, UIC: true}, func(tr *circuit.TranRunner) bool {
		watch(tr)
		return false
	})
	if err != nil {
		return fmt.Errorf("periph: sense-amp transient: %w", err)
	}
	if err := enHalf.Err(); err != nil {
		return fmt.Errorf("periph: sense-amp enable edge: %w", err)
	}
	if err := low.Err(); err != nil {
		return fmt.Errorf("periph: sense amp did not resolve: %w", err)
	}
	if hi := tr.V(tr.Node("sb")); hi < 0.9*t.Vdd {
		return fmt.Errorf("periph: sense amp resolved wrong: sb=%g", hi)
	}
	t.SADelay = low.At - enHalf.At
	// Energy: one internal node plus the foot swing ~ full rail.
	t.SAEnergy = (cNode + 4*t.Lib.NLVT.CdFin) * t.Vdd * t.Vdd
	return nil
}

// DecoderResult carries the delay and switching energy of one decoder.
type DecoderResult struct {
	Delay  float64 // s
	Energy float64 // J per access
}

// Decoder models a predecoded row/column decoder selecting one of 2^nBits
// outputs, each loading the decoder with the first stage of a superbuffer.
// lineWireCap is the wire capacitance of one predecode line spanning the
// decoded dimension (n_r cell heights for the row decoder, n_c cell widths
// for the column decoder).
//
// Delay follows the logical-effort method on the critical path
// (address buffer → NAND2 predecoder → inverter → final NAND), with the
// number of stages chosen for stage effort ≈ 4; energy counts the switched
// predecode lines, the selected final gate, and the driven load.
func (t *Tech) Decoder(nBits int, lineWireCap float64) DecoderResult {
	if nBits < 0 {
		panic(fmt.Sprintf("periph: negative decoder width %d", nBits))
	}
	cUnit := t.unitInputCap()
	cLoad := cUnit // superbuffer first stage (1 fin)
	if nBits == 0 {
		// Single output: just an enable buffer.
		return DecoderResult{
			Delay:  t.Tau * (cLoad/cUnit + t.PInv),
			Energy: (cLoad + t.Lib.NLVT.CdFin + t.Lib.PLVT.CdFin) * t.Vdd * t.Vdd,
		}
	}
	outputs := 1 << nBits
	groups := (nBits + 1) / 2 // predecode in pairs; an odd bit forms its own group
	finalInputs := groups
	if finalInputs < 2 {
		finalInputs = 2
	}

	// Path logical effort: NAND2 predecode × final NAND-k.
	g := nandEffort(2) * nandEffort(finalInputs)
	// Branching: each predecode line fans out to outputs/4 final gates (a
	// pair group has 4 lines); the line wire adds to the electrical effort
	// through its capacitance at the predecode stage.
	branch := math.Max(1, float64(outputs)/4)
	cFinalGateIn := cUnit * nandEffort(finalInputs)
	cLine := branch*cFinalGateIn + lineWireCap
	// Electrical effort referenced to a unit input, ending at the load.
	h := (cLine / cUnit) * (cLoad / cFinalGateIn)
	f := g * h
	if f < 1 {
		f = 1
	}
	// Stage count: the two NAND stages plus enough inverters for stage
	// effort ≈ 4.
	n := int(math.Round(math.Log(f) / math.Log(4)))
	if n < 2 {
		n = 2
	}
	parasitic := nandParasitic(2) + nandParasitic(finalInputs) + float64(n-2)*t.PInv
	delay := t.Tau * (float64(n)*math.Pow(f, 1/float64(n)) + parasitic)

	// Energy: per access, one predecode line per group toggles (plus its
	// wire) with a 0.5 charging-activity factor, one final gate switches,
	// and the load is driven.
	eLines := 0.5 * float64(groups) * cLine * t.Vdd * t.Vdd
	eFinal := (cFinalGateIn*float64(finalInputs) + cLoad + t.Lib.NLVT.CdFin + t.Lib.PLVT.CdFin) * t.Vdd * t.Vdd
	return DecoderResult{Delay: delay, Energy: eLines + eFinal}
}

// RowDecoder evaluates the row decoder of an array geometry: log2(n_r)
// inputs with predecode lines spanning the array height.
func (t *Tech) RowDecoder(g wire.Geometry) DecoderResult {
	return t.Decoder(log2(g.NR), float64(g.NR)*wire.CHeight())
}

// ColumnDecoder evaluates the column decoder: log2(n_c/W) inputs with lines
// spanning the array width. For an unmuxed array it returns zeros (Table 3:
// all column-mux components vanish when n_c ≤ W).
func (t *Tech) ColumnDecoder(g wire.Geometry) DecoderResult {
	if !g.Muxed() {
		return DecoderResult{}
	}
	return t.Decoder(log2(g.NC/g.W), float64(g.NC)*wire.CWidth())
}

// Driver models the 4-stage superbuffer that drives the WL, COL, CVDD and
// CVSS rails. The returned values cover the first three stages only; the
// final stage's interaction with its rail is modeled by the Table-2
// interconnect equations (whose capacitances already include the final
// stage's drain, and whose currents are the final stage's drive).
type DriverResult struct {
	Delay  float64 // s, first DriverStages-1 stages
	Energy float64 // J, first DriverStages-1 stages plus final-stage gate
}

// Driver evaluates a superbuffer whose final stage has finalFins fins.
func (t *Tech) Driver(finalFins int) DriverResult {
	if finalFins < 1 {
		panic(fmt.Sprintf("periph: driver final stage %d fins", finalFins))
	}
	k := math.Pow(float64(finalFins), 1.0/float64(DriverStages-1))
	delay := float64(DriverStages-1) * t.Tau * (k + t.PInv)
	cd := t.Lib.NLVT.CdFin + t.Lib.PLVT.CdFin
	cg := t.unitInputCap()
	energy := 0.0
	for i := 1; i < DriverStages; i++ {
		stageFins := math.Pow(k, float64(i-1))
		nextFins := math.Pow(k, float64(i))
		energy += (stageFins*cd + nextFins*cg) * t.Vdd * t.Vdd
	}
	return DriverResult{Delay: delay, Energy: energy}
}

// Currents of Table 2 — all per the paper's coefficient fits, with the unit
// currents taken from the LVT peripheral devices.

// IONPfet returns the on current of a single-fin LVT PFET at nominal bias.
func (t *Tech) IONPfet() float64 { return t.Lib.PLVT.ION() }

// IONTG returns the on current of a single-fin transmission gate (NFET and
// PFET in parallel at full rail).
func (t *Tech) IONTG() float64 { return t.Lib.NLVT.ION() + t.Lib.PLVT.ION() }

// ICVDD returns the unit current of the CVDD rail driver PFET operating at
// the boosted rail vddc.
func (t *Tech) ICVDD(vddc float64) float64 {
	return math.Abs(t.Lib.PLVT.Ids(-vddc, -vddc))
}

// ICVSS returns the unit current of the CVSS rail driver NFET discharging
// the rail from Vdd to vssc (gate overdriven by the full Vdd−vssc swing).
func (t *Tech) ICVSS(vssc float64) float64 {
	return t.Lib.NLVT.Ids(t.Vdd-vssc, t.Vdd-vssc)
}

// IWL returns the unit current of the WL driver's final-stage PFET sourced
// at the overdriven rail vwl.
func (t *Tech) IWL(vwl float64) float64 {
	return math.Abs(t.Lib.PLVT.Ids(-vwl, -vwl))
}

func log2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}
