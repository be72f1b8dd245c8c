package periph

import (
	"fmt"
	"math"
	"testing"

	"sramco/internal/circuit"
	"sramco/internal/device"
)

// recordedCharacterize is Characterize on the recording path: every
// transient integrates and records its whole window, and the crossings are
// read from the traces with CrossTime. It is the oracle of
// TestCharacterizeMatchesRecorded.
func recordedCharacterize(lib *device.Library, vdd, deltaV float64) (*Tech, error) {
	t := &Tech{Lib: lib, Vdd: vdd}
	d1, err := recordedInverterDelay(t, 1)
	if err != nil {
		return nil, err
	}
	d4, err := recordedInverterDelay(t, 4)
	if err != nil {
		return nil, err
	}
	t.Tau = (d4 - d1) / 3
	if t.Tau <= 0 {
		return nil, fmt.Errorf("non-positive tau (d1=%g, d4=%g)", d1, d4)
	}
	t.PInv = d1/t.Tau - 1
	if t.PInv < 0 {
		t.PInv = 0
	}

	if err := recordedSenseAmp(t, deltaV); err != nil {
		return nil, err
	}
	return t, nil
}

func recordedInverterDelay(t *Tech, h float64) (float64, error) {
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
	ckt.AddC("cload", "out", circuit.Ground, h*t.unitInputCap())
	ckt.AddC("cpar", "out", circuit.Ground, t.Lib.NLVT.CdFin+t.Lib.PLVT.CdFin)
	res, err := ckt.Transient(circuit.TranOpts{TStop: tStop, DT: dt})
	if err != nil {
		return 0, err
	}
	half := t.Vdd / 2
	inRise, err := res.CrossTime("in", half, circuit.RisingEdge, 0)
	if err != nil {
		return 0, err
	}
	outFall, err := res.CrossTime("out", half, circuit.FallingEdge, inRise)
	if err != nil {
		return 0, err
	}
	inFall, err := res.CrossTime("in", half, circuit.FallingEdge, outFall)
	if err != nil {
		return 0, err
	}
	outRise, err := res.CrossTime("out", half, circuit.RisingEdge, inFall)
	if err != nil {
		return 0, err
	}
	return ((outFall - inRise) + (outRise - inFall)) / 2, nil
}

func recordedSenseAmp(t *Tech, deltaV float64) error {
	const (
		tEn   = 2e-12
		rise  = 1e-12
		tStop = 300e-12
		dt    = 0.1e-12
	)
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
	ckt.SetIC("sa", t.Vdd-deltaV)
	ckt.SetIC("sb", t.Vdd)
	ckt.SetIC("foot", t.Vdd-deltaV)
	res, err := ckt.Transient(circuit.TranOpts{TStop: tStop, DT: dt, UIC: true})
	if err != nil {
		return err
	}
	tEnHalf, err := res.CrossTime("en", t.Vdd/2, circuit.RisingEdge, 0)
	if err != nil {
		return err
	}
	tLow, err := res.CrossTime("sa", 0.1*t.Vdd, circuit.FallingEdge, tEnHalf)
	if err != nil {
		return err
	}
	if hi := res.Final("sb"); hi < 0.9*t.Vdd {
		return fmt.Errorf("sense amp resolved wrong: sb=%g", hi)
	}
	t.SADelay = tLow - tEnHalf
	t.SAEnergy = (cNode + 4*t.Lib.NLVT.CdFin) * t.Vdd * t.Vdd
	return nil
}

// TestCharacterizeMatchesRecorded checks that the characterization that
// watches crossings, stopping the inverter runs at their fourth crossing
// and recording nothing of the sense-amp run, gives the recorded path's
// Tau, PInv, SADelay and SAEnergy bit for bit at three supplies and every
// corner library.
func TestCharacterizeMatchesRecorded(t *testing.T) {
	for _, vdd := range []float64{0.30, 0.45, 0.50} {
		for _, corner := range device.Corners() {
			lib := device.Default7nm().AtCorner(corner)
			got, err := Characterize(lib, CharacterizeOpts{Vdd: vdd})
			if err != nil {
				t.Fatalf("Vdd %g %v: %v", vdd, corner, err)
			}
			want, err := recordedCharacterize(lib, vdd, 0.120)
			if err != nil {
				t.Fatalf("Vdd %g %v, recorded: %v", vdd, corner, err)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"Tau", got.Tau, want.Tau},
				{"PInv", got.PInv, want.PInv},
				{"SADelay", got.SADelay, want.SADelay},
				{"SAEnergy", got.SAEnergy, want.SAEnergy},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("Vdd %g %v: %s = %v, recorded %v", vdd, corner, f.name, f.got, f.want)
				}
			}
		}
	}
}
