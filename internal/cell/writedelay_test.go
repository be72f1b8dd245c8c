package cell

import (
	"fmt"
	"math"
	"testing"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/num"
)

// recordedWriteDelay is WriteDelay on the recording path: the whole window
// is integrated and recorded, and both crossings are read from the traces.
// It is the oracle of TestWriteDelayMatchesRecorded.
func recordedWriteDelay(c *Cell, b WriteBias) (float64, error) {
	const (
		tStart = 2e-12  // WL step start
		tRise  = 1e-12  // WL rise time
		tStop  = 60e-12 // simulation window
		dt     = 0.05e-12
	)
	ckt := c.writeCell(circuit.Step(0, b.VWL, tStart, tRise), b.Vdd, b.VBL)
	res, err := ckt.Transient(circuit.TranOpts{TStop: tStop, DT: dt})
	if err != nil {
		return 0, err
	}
	tWL, err := res.CrossTime("WL", 0.5*b.Vdd, circuit.RisingEdge, 0)
	if err != nil {
		return 0, err
	}
	tCross, err := crossEachOther(res, "Q", "QB", tWL)
	if err != nil {
		return 0, err
	}
	return tCross - tWL, nil
}

// crossEachOther returns the first time after tMin at which trace a drops
// below trace b, scanning the recorded steps.
func crossEachOther(res *circuit.TranResult, a, b string, tMin float64) (float64, error) {
	va, vb := res.V(a), res.V(b)
	for i := 1; i < len(va); i++ {
		if res.Times[i] < tMin {
			continue
		}
		d0 := va[i-1] - vb[i-1]
		d1 := va[i] - vb[i]
		if d0 > 0 && d1 <= 0 {
			frac := d0 / (d0 - d1)
			return res.Times[i-1] + frac*(res.Times[i]-res.Times[i-1]), nil
		}
	}
	return 0, fmt.Errorf("cell: %s and %s never crossed (write did not complete)", a, b)
}

// TestWriteDelayMatchesRecorded checks that the write delay measured by
// watching crossings, which stops at the Q/QB crossing, is bit-identical to
// the recorded full window's, over both flavors, every corner library, the
// supplies of the Vdd-scaling study, both bitline levels and the six-level
// wordline grid of the framework's write-delay LUT. A bias at which the
// write does not complete inside the window must fail on both paths.
func TestWriteDelayMatchesRecorded(t *testing.T) {
	for _, f := range []device.Flavor{device.LVT, device.HVT} {
		for _, corner := range device.Corners() {
			t.Run(fmt.Sprintf("%v/%v", f, corner), func(t *testing.T) {
				t.Parallel()
				c := &Cell{Lib: device.Default7nm().AtCorner(corner), Flavor: f}
				fails := 0
				for _, vdd := range []float64{0.30, 0.35, 0.40, 0.45, 0.50} {
					for _, vbl := range []float64{0, -0.1} {
						for _, vwl := range num.Linspace(vdd, vdd+0.25, 6) {
							b := WriteBias{Vdd: vdd, VWL: vwl, VBL: vbl}
							got, gotErr := c.WriteDelay(b)
							want, wantErr := recordedWriteDelay(c, b)
							switch {
							case (gotErr != nil) != (wantErr != nil):
								t.Errorf("%+v: watched err %v, recorded err %v", b, gotErr, wantErr)
							case gotErr != nil:
								fails++
							case math.Float64bits(got) != math.Float64bits(want):
								t.Errorf("%+v: watched %v, recorded %v", b, got, want)
							}
						}
					}
				}
				if fails > 0 {
					t.Logf("%d of 60 biases fail on both paths", fails)
				}
			})
		}
	}
}
