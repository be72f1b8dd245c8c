package circuit_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sramco/internal/cell"
	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/num"
)

// The cell-level oracle: the cell package's margins, leakage and read
// current, which run on the production kernel, against the same netlists
// solved by the full-MNA reference. The netlists below mirror the cell
// package's — node and element order, names and fin counts as its addHalf,
// fullCell and writeCell lay them out — and each test first checks that the
// production kernel reproduces the cell package's result on them bit for
// bit, so the comparison with the reference is a comparison of kernels.

const (
	vtcPoints    = 181    // cell's butterfly sweep resolution
	tripTolV     = 0.5e-3 // cell's Monte Carlo write-trip tolerance
	probeStop    = 300e-12
	probeDT      = 0.5e-12
	tripHalvings = 28
)

// addHalf adds one half-cell: pull-up, pull-down, access transistor.
func addHalf(ckt *circuit.Circuit, c *cell.Cell, side int, in, out, cvdd, cvss, bl, wl string) {
	n, p := c.Lib.Model(device.NFET, c.Flavor), c.Lib.Model(device.PFET, c.Flavor)
	dvt := c.DVt[side*3 : side*3+3]
	ckt.AddFET(circuit.FET{Name: "pu" + out, Model: p, Fins: 1, DVt: dvt[0], D: out, G: in, S: cvdd})
	ckt.AddFET(circuit.FET{Name: "pd" + out, Model: n, Fins: 1, DVt: dvt[1], D: out, G: in, S: cvss})
	ckt.AddFET(circuit.FET{Name: "ax" + out, Model: n, Fins: 1, DVt: dvt[2], D: bl, G: wl, S: out})
}

// halfCell is one side's VTC netlist, input swept by source vin.
func halfCell(c *cell.Cell, side int, cvdd, cvss, bl, wl, lo float64) *circuit.Circuit {
	ckt := circuit.New()
	ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(cvdd))
	ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(cvss))
	ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(wl))
	ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(bl))
	ckt.AddV("vin", "IN", circuit.Ground, circuit.DC(lo))
	addHalf(ckt, c, side, "IN", "OUT", "CVDD", "CVSS", "BL", "WL")
	ckt.SetIC("OUT", cvdd)
	return ckt
}

// fullCell is the 6T cell with independently forced rails.
func fullCell(c *cell.Cell, cvdd, cvss, vwl, vbl, vblb float64) *circuit.Circuit {
	ckt := circuit.New()
	ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(cvdd))
	ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(cvss))
	ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(vwl))
	ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(vbl))
	ckt.AddV("vblb", "BLB", circuit.Ground, circuit.DC(vblb))
	addHalf(ckt, c, 0, "QB", "Q", "CVDD", "CVSS", "BL", "WL")
	addHalf(ckt, c, 1, "Q", "QB", "CVDD", "CVSS", "BLB", "WL")
	return ckt
}

// flip mirrors a VTC across the diagonal exactly as the cell package does.
func flip(v *cell.VTC) *cell.VTC {
	var fx, fy []float64
	for i := len(v.X) - 1; i >= 0; i-- {
		x, y := v.Y[i], v.X[i]
		if len(fx) > 0 && x <= fx[len(fx)-1]+1e-9 {
			continue
		}
		fx = append(fx, x)
		fy = append(fy, y)
	}
	return &cell.VTC{X: fx, Y: fy}
}

type sweepFn func(ckt *circuit.Circuit, xs []float64) ([]float64, error)

func kernelSweep(ckt *circuit.Circuit, xs []float64) ([]float64, error) {
	sw, err := ckt.NewSweeper("vin", "OUT")
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	return out, sw.Sweep(xs, out)
}

func mnaSweep(ckt *circuit.Circuit, xs []float64) ([]float64, error) {
	return circuit.MNASweep(ckt, "vin", "OUT", xs)
}

// snm is the butterfly SNM under explicit rails with VTCs from sweep.
func snm(sweep sweepFn, c *cell.Cell, cvdd, cvss, bl, wl, lo, hi float64) (float64, error) {
	xs := num.Linspace(lo, hi, vtcPoints)
	var vtc [2]*cell.VTC
	for side := range vtc {
		ys, err := sweep(halfCell(c, side, cvdd, cvss, bl, wl, lo), xs)
		if err != nil {
			return 0, err
		}
		vtc[side] = &cell.VTC{X: xs, Y: ys}
	}
	bf := cell.Butterfly{A: vtc[0], B: flip(vtc[1])}
	return bf.SNM()
}

// oracleCells draws the seeded cells of the SNM and current oracles: for
// each flavor the nominal cell and two draws each at σ = 25 mV and
// 3σ = 75 mV per device.
func oracleCells() []*cell.Cell {
	rng := rand.New(rand.NewSource(16))
	var out []*cell.Cell
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		out = append(out, cell.New(fl))
		for _, sigma := range []float64{0.025, 0.075, 0.025, 0.075} {
			c := cell.New(fl)
			for i := range c.DVt {
				c.DVt[i] = rng.NormFloat64() * sigma
			}
			out = append(out, c)
		}
	}
	return out
}

// oracleReads are the read biases of the oracles: nominal, a VDDC boost, a
// negative VSSC, and both.
func oracleReads() []cell.ReadBias {
	vdd := device.Vdd
	return []cell.ReadBias{
		cell.NominalRead(vdd),
		{Vdd: vdd, VDDC: vdd + 0.1, VSSC: 0, VWL: vdd},
		{Vdd: vdd, VDDC: vdd, VSSC: -0.1, VWL: vdd},
		{Vdd: vdd, VDDC: vdd + 0.05, VSSC: -0.2, VWL: vdd},
	}
}

// TestSNMMatchesMNA: hold and read SNMs of the seeded cells agree with the
// full-MNA reference within 1 nV.
func TestSNMMatchesMNA(t *testing.T) {
	vdd := device.Vdd
	type rails struct{ cvdd, cvss, bl, wl, lo, hi float64 }
	type snmCase struct {
		name string
		r    rails
		cell func(c *cell.Cell) (float64, error)
	}
	cases := []snmCase{{"hold", rails{vdd, 0, vdd, 0, 0, vdd}, func(c *cell.Cell) (float64, error) { return c.HoldSNM(vdd) }}}
	for _, b := range oracleReads() {
		b := b
		cases = append(cases, snmCase{"read", rails{b.VDDC, b.VSSC, b.Vdd, b.VWL, math.Min(b.VSSC, 0), math.Max(b.VDDC, b.Vdd)},
			func(c *cell.Cell) (float64, error) { return c.ReadSNM(b) }})
	}
	var worst float64
	for ci, c := range oracleCells() {
		for _, k := range cases {
			r := k.r
			prod, err := k.cell(c)
			if err != nil {
				t.Fatalf("cell %d %s: %v", ci, k.name, err)
			}
			mirror, err := snm(kernelSweep, c, r.cvdd, r.cvss, r.bl, r.wl, r.lo, r.hi)
			if err != nil {
				t.Fatal(err)
			}
			if mirror != prod {
				t.Fatalf("cell %d %s rails %+v: mirrored netlists give %v on the kernel, cell package %v", ci, k.name, r, mirror, prod)
			}
			ref, err := snm(mnaSweep, c, r.cvdd, r.cvss, r.bl, r.wl, r.lo, r.hi)
			if err != nil {
				t.Fatal(err)
			}
			d := math.Abs(prod - ref)
			if d > 1e-9 {
				t.Errorf("cell %d (%v, ΔVt %.3f) %s rails %+v: SNM %v, MNA %v", ci, c.Flavor, c.DVt, k.name, r, prod, ref)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("largest SNM difference from the MNA reference: %.2g V", worst)
}

// TestCurrentsMatchMNA: leakage power and read current of the seeded cells,
// whose grounded sources' currents the kernel computes by KCL, agree with
// the reference's branch currents. Read current, carried by an access
// device with a full bitline drop across it, agrees within 10⁻¹² relative.
// Leakage is held to 10⁻¹⁰: in hold, the on pull-up of the '1' side has a
// drain-source drop of ~1 µV, so one ulp of its 0.45 V storage node
// (5.6·10⁻¹⁷ V) moves the supply current by ~6·10⁻¹¹ relative, and the
// two kernels' roots agree to an ulp or two, not better.
func TestCurrentsMatchMNA(t *testing.T) {
	vdd := device.Vdd
	worst := map[string]float64{}
	check := func(what string, tol, got, mirror, ref float64) {
		t.Helper()
		if mirror != got {
			t.Fatalf("%s: mirrored netlist gives %v on the kernel, cell package %v", what, mirror, got)
		}
		e := math.Abs(got-ref) / math.Abs(ref)
		if e > tol {
			t.Errorf("%s: kernel %v, MNA %v (rel %.2g)", what, got, ref, e)
		}
		worst[what] = math.Max(worst[what], e)
	}
	for _, c := range oracleCells() {
		leak, err := c.LeakagePower(vdd)
		if err != nil {
			t.Fatal(err)
		}
		power := func(solve func(*circuit.Circuit) (*circuit.DCResult, error)) float64 {
			ckt := fullCell(c, vdd, 0, 0, vdd, vdd)
			ckt.SetIC("Q", 0)
			ckt.SetIC("QB", vdd)
			r, err := solve(ckt)
			if err != nil {
				t.Fatal(err)
			}
			return vdd*r.SourceCurrent("vcvdd") + vdd*r.SourceCurrent("vbl") + vdd*r.SourceCurrent("vblb")
		}
		check("leakage", 1e-10, leak,
			power((*circuit.Circuit).DCOperatingPoint), power(circuit.MNAOperatingPoint))

		for _, b := range oracleReads() {
			iread, err := c.ReadCurrent(b)
			if err != nil {
				t.Fatal(err)
			}
			current := func(solve func(*circuit.Circuit) (*circuit.DCResult, error)) float64 {
				ckt := fullCell(c, b.VDDC, b.VSSC, b.VWL, b.Vdd, b.Vdd)
				ckt.SetIC("Q", b.VSSC)
				ckt.SetIC("QB", b.VDDC)
				r, err := solve(ckt)
				if err != nil {
					t.Fatal(err)
				}
				return r.SourceCurrent("vbl")
			}
			check("read current", 1e-12, iread,
				current((*circuit.Circuit).DCOperatingPoint), current(circuit.MNAOperatingPoint))
		}
	}
	t.Logf("largest relative differences from the MNA reference: %v", worst)
}

// mnaWriteTrip is the write-trip bisection of the cell package, each flip
// probe a full 300 ps window on the full-MNA reference.
func mnaWriteTrip(c *cell.Cell, b cell.WriteBias, tol float64) (float64, error) {
	flips := func(vwl float64) (bool, error) {
		ckt := fullCell(c, b.Vdd, 0, vwl, b.VBL, b.Vdd)
		cq := c.StorageNodeCap()
		ckt.AddC("cq", "Q", circuit.Ground, cq)
		ckt.AddC("cqb", "QB", circuit.Ground, cq)
		ckt.SetIC("Q", b.Vdd)
		ckt.SetIC("QB", 0)
		v, err := circuit.MNATransient(ckt, circuit.TranOpts{TStop: probeStop, DT: probeDT, UIC: true})
		return v["Q"] < v["QB"], err
	}
	lo, hi := 0.0, b.VWL
	if fl, err := flips(lo); err != nil || fl {
		return 0, err
	}
	if fh, err := flips(hi); err != nil || !fh {
		if err == nil {
			err = cell.ErrWriteFail
		}
		return 0, err
	}
	for i := 0; i < tripHalvings && hi-lo > tol; i++ {
		mid := 0.5 * (lo + hi)
		fm, err := flips(mid)
		if err != nil {
			return 0, err
		}
		if fm {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// TestWriteFlipsMatchMNA: on the cases of the cell package's
// TestWriteProbeMatchesOracle (seed 21, both flavors, one draw at σ = 25
// and 75 mV, wordline at nominal, 0.54 V and 0.40 V), the certified probes
// on the kernel make every flip decision the full-window reference makes:
// Monte Carlo write margins equal bit for bit, and so do the 28-halving
// margins of every fourth case.
func TestWriteFlipsMatchMNA(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window MNA reference")
	}
	vdd := device.Vdd
	biases := []cell.WriteBias{cell.NominalWrite(vdd), {Vdd: vdd, VWL: 0.54}, {Vdd: vdd, VWL: 0.40}}
	rng := rand.New(rand.NewSource(21))
	i, fails := 0, 0
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		s, err := cell.NewScratch(cell.New(fl))
		if err != nil {
			t.Fatal(err)
		}
		for _, sigma := range []float64{0.025, 0.075} {
			c := cell.New(fl)
			for k := range c.DVt {
				c.DVt[k] = rng.NormFloat64() * sigma
			}
			for _, b := range biases {
				trip, errR := mnaWriteTrip(c, b, tripTolV)
				wm, errK := s.WriteMargin(c.DVt, b)
				switch {
				case errors.Is(errR, cell.ErrWriteFail):
					fails++
					if !errors.Is(errK, cell.ErrWriteFail) {
						t.Errorf("%v ΔVt %.3f %+v: reference fails the write, kernel says %v, %v", fl, c.DVt, b, wm, errK)
					}
				case errR != nil || errK != nil:
					t.Fatalf("%v ΔVt %.3f %+v: reference %v, kernel %v", fl, c.DVt, b, errR, errK)
				case wm != b.VWL-trip:
					t.Errorf("%v ΔVt %.3f %+v: kernel WM %v, reference %v", fl, c.DVt, b, wm, b.VWL-trip)
				case i%4 == 0:
					full, err := mnaWriteTrip(c, b, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := c.WriteMargin(b); err != nil || got != b.VWL-full {
						t.Errorf("%v ΔVt %.3f %+v: 28-halving WM %v (%v), reference %v", fl, c.DVt, b, got, err, b.VWL-full)
					}
				}
				i++
			}
		}
	}
	if fails == 0 || fails == i {
		t.Errorf("%d of %d cases fail the write; want both outcomes", fails, i)
	}
}
