package cell

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/obs"
)

// oracleWriteTrip is the obviously-correct write-trip search the certified
// probe must reproduce: every probe builds its netlist from scratch and
// integrates the full 300 ps window with the recording Transient, and the
// bisection over [0, b.VWL] stops, like the probe's, once the interval is
// no wider than writeTripTolV.
func oracleWriteTrip(c *Cell, b WriteBias) (float64, error) {
	flips := func(vwl float64) (bool, error) {
		ckt := circuit.New()
		ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(b.Vdd))
		ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(0))
		ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(vwl))
		ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(b.VBL))
		ckt.AddV("vblb", "BLB", circuit.Ground, circuit.DC(b.Vdd))
		c.addHalf(ckt, 0, "QB", "Q", "CVDD", "CVSS", "BL", "WL")
		c.addHalf(ckt, 1, "Q", "QB", "CVDD", "CVSS", "BLB", "WL")
		cq := c.StorageNodeCap()
		ckt.AddC("cq", "Q", circuit.Ground, cq)
		ckt.AddC("cqb", "QB", circuit.Ground, cq)
		ckt.SetIC("Q", b.Vdd)
		ckt.SetIC("QB", 0)
		res, err := ckt.Transient(circuit.TranOpts{TStop: 300e-12, DT: 0.5e-12, UIC: true})
		if err != nil {
			return false, err
		}
		return res.Final("Q") < res.Final("QB"), nil
	}
	lo, hi := 0.0, b.VWL
	if fl, err := flips(lo); err != nil || fl {
		return 0, err
	}
	fh, err := flips(hi)
	if err != nil {
		return 0, err
	}
	if !fh {
		return 0, ErrWriteFail
	}
	for hi-lo > writeTripTolV {
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

// oracleCase is one seeded write-margin extraction of the oracle set.
type oracleCase struct {
	flavor device.Flavor
	dvt    Variation
	bias   WriteBias
}

func (oc oracleCase) String() string {
	return fmt.Sprintf("%v VWL=%.2f VBL=%.2f dvt=%.3f", oc.flavor, oc.bias.VWL, oc.bias.VBL, oc.dvt)
}

// oracleCases draws n perturbations per flavor at each σ in sigmas and pairs
// every draw with every bias.
func oracleCases(seed int64, n int, sigmas []float64, biases []WriteBias) []oracleCase {
	rng := rand.New(rand.NewSource(seed))
	var out []oracleCase
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		for _, sigma := range sigmas {
			for k := 0; k < n; k++ {
				var v Variation
				for i := range v {
					v[i] = rng.NormFloat64() * sigma
				}
				for _, b := range biases {
					out = append(out, oracleCase{flavor: fl, dvt: v, bias: b})
				}
			}
		}
	}
	return out
}

// checkAgainstOracle runs every case through one reused Scratch per flavor
// and, for every fourth case, Cell.WriteMargin on a fresh workspace, and
// demands margins bit-identical to the full-window oracle's and identical
// write-fail verdicts.
func checkAgainstOracle(t *testing.T, cases []oracleCase) (fails int) {
	t.Helper()
	scr := map[device.Flavor]*Scratch{}
	for i, oc := range cases {
		s := scr[oc.flavor]
		if s == nil {
			var err error
			if s, err = NewScratch(New(oc.flavor)); err != nil {
				t.Fatal(err)
			}
			scr[oc.flavor] = s
		}
		c := &Cell{Lib: device.Default7nm(), Flavor: oc.flavor, DVt: oc.dvt}
		trip, errO := oracleWriteTrip(c, oc.bias)
		wm, errS := s.WriteMargin(oc.dvt, oc.bias)
		if errors.Is(errO, ErrWriteFail) {
			fails++
			if !errors.Is(errS, ErrWriteFail) {
				t.Errorf("%v: oracle fails the write, scratch says %v, %v", oc, wm, errS)
			}
			continue
		}
		if errO != nil || errS != nil {
			t.Fatalf("%v: oracle %v, scratch %v", oc, errO, errS)
		}
		want := oc.bias.VWL - trip
		if wm != want {
			t.Errorf("%v: scratch WM %v, oracle %v", oc, wm, want)
		}
		if i%4 != 0 {
			continue
		}
		got, err := c.WriteMargin(oc.bias)
		if err != nil {
			t.Fatalf("%v: WriteMargin: %v", oc, err)
		}
		if got != want {
			t.Errorf("%v: WriteMargin %v, oracle %v", oc, got, want)
		}
	}
	return fails
}

// TestWriteProbeMatchesOracle proves the certified probe changes no flip
// decision: on a committed seeded set — both flavors, draws at σ = 25 mV
// and 3σ = 75 mV per device, wordline at nominal, 0.54 V and 0.40 V, with
// write-fail samples of both flavors among them — every write margin equals
// the full-window oracle's bit for bit, and every write-fail verdict agrees.
func TestWriteProbeMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window oracle")
	}
	vdd := device.Vdd
	biases := []WriteBias{
		NominalWrite(vdd),
		{Vdd: vdd, VWL: 0.54},
		{Vdd: vdd, VWL: 0.40},
	}
	start := time.Now()
	cases := oracleCases(21, 1, []float64{0.025, 0.075}, biases)
	fails := checkAgainstOracle(t, cases)
	if fails == 0 || fails == len(cases) {
		t.Errorf("oracle set has %d write-fail cases of %d; want both outcomes covered", fails, len(cases))
	}
	t.Logf("%d cases (%d write fails) match the oracle in %v", len(cases), fails, time.Since(start))
}

// storageCurrents returns the net currents into Q and QB of the write
// netlist (CVDD = BLB = vdd, CVSS = BL = 0, wordline at wl) with the storage
// nodes held at (q, qb) — the same device calls, terminal order and fin
// counts addHalf wires up.
func storageCurrents(c *Cell, dvt Variation, vdd, wl, q, qb float64) (fq, fqb float64) {
	n, p := c.n(), c.p()
	side := func(in, out, bl float64, base Transistor) float64 {
		pu := p.IdsShift(in-vdd, out-vdd, dvt[base+PUL]) // drain out, source CVDD
		pd := n.IdsShift(in, out, dvt[base+PDL])         // drain out, source CVSS
		ax := n.IdsShift(wl-out, bl-out, dvt[base+AXL])  // drain BL, source out
		return -pu - pd + ax
	}
	return side(qb, q, 0, 0), side(q, qb, vdd, 3)
}

// TestWriteProbePremise checks, over the certificates' domain, the fact both
// write-probe certificates rest on: with VBL = 0 each storage node's current
// falls as the other node rises (the cross-node entries of the storage-node
// Jacobian J are ≤ 0), and C/dt outweighs the conductances enough that
// C/dt·I − J is an M-matrix with det ≥ ½(C/dt)², so every backward-Euler
// step of the probe preserves the order on (Q, −QB). The sweep covers both
// flavors, supplies spanning [certVddMin, certVddMax], nodes on a grid over
// [0, Vdd]², wordline levels over [0, Vdd + certOverdriveV] and per-device
// ΔVt over [−certDVtV, certDVtV]. A change to the device model, the storage
// capacitance or the probe's time step that breaks the argument fails here
// by name.
func TestWriteProbePremise(t *testing.T) {
	const (
		h      = 1e-6 // V, central-difference step
		nodes  = 11   // grid points per storage node
		wls    = 6    // wordline levels
		shifts = 5    // ΔVt levels per device
	)
	grid := func(lo, hi float64, k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
		}
		return out
	}
	dvts := grid(-certDVtV, certDVtV, shifts)
	// side holds one half-cell's Jacobian entries for one ΔVt triple: the
	// diagonal d = ∂f_out/∂out and the cross entry x = ∂f_out/∂in.
	type side struct{ d, x float64 }
	worst := math.Inf(1)
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		c := New(fl)
		a := c.StorageNodeCap() / probeDT
		for _, vdd := range grid(certVddMin, certVddMax, 3) {
			for _, wl := range grid(0, vdd+certOverdriveV, wls) {
				for _, q := range grid(0, vdd, nodes) {
					for _, qb := range grid(0, vdd, nodes) {
						var left, right []side
						for _, pu := range dvts {
							for _, pd := range dvts {
								for _, ax := range dvts {
									v := Variation{PUL: pu, PDL: pd, AXL: ax, PUR: pu, PDR: pd, AXR: ax}
									fq1, fqb1 := storageCurrents(c, v, vdd, wl, q+h, qb)
									fq0, fqb0 := storageCurrents(c, v, vdd, wl, q-h, qb)
									fq3, fqb3 := storageCurrents(c, v, vdd, wl, q, qb+h)
									fq2, fqb2 := storageCurrents(c, v, vdd, wl, q, qb-h)
									left = append(left, side{d: (fq1 - fq0) / (2 * h), x: (fq3 - fq2) / (2 * h)})
									right = append(right, side{d: (fqb3 - fqb2) / (2 * h), x: (fqb1 - fqb0) / (2 * h)})
								}
							}
						}
						for _, l := range left {
							if l.x > 0 {
								t.Fatalf("%v Vdd=%.2f WL=%.2f Q=%.3f QB=%.3f: ∂I_Q/∂QB = %g > 0", fl, vdd, wl, q, qb, l.x)
							}
							if a-l.d <= 0 {
								t.Fatalf("%v Vdd=%.2f WL=%.2f Q=%.3f QB=%.3f: C/dt − ∂I_Q/∂Q = %g ≤ 0", fl, vdd, wl, q, qb, a-l.d)
							}
							for _, r := range right {
								if r.x > 0 {
									t.Fatalf("%v Vdd=%.2f WL=%.2f Q=%.3f QB=%.3f: ∂I_QB/∂Q = %g > 0", fl, vdd, wl, q, qb, r.x)
								}
								det := ((a-l.d)*(a-r.d) - l.x*r.x) / (a * a)
								if det < worst {
									worst = det
								}
								if det < 0.5 {
									t.Fatalf("%v Vdd=%.2f WL=%.2f Q=%.3f QB=%.3f: det(C/dt·I − J) = %.3f·(C/dt)², want ≥ 0.5", fl, vdd, wl, q, qb, det)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("min det(C/dt·I − J)/(C/dt)² = %.3f", worst)
}

// TestWriteTripSpanOnEveryPath proves every trip search ends its
// cell.write_trip span — a write-fail Monte Carlo sample is a valid outcome
// and must show in traces — with its outcome, probe count and total
// transient steps, that certificate equilibrium attempts never count as
// Newton failures, and that no span drops an attribute past its cap.
func TestWriteTripSpanOnEveryPath(t *testing.T) {
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	reg := obs.Default()
	fails0 := reg.CounterValue("circuit.newton.failures")
	steps0 := reg.CounterValue("circuit.tran.steps")
	dropped0 := reg.CounterValue("obs.span.attrs_dropped")

	s, err := NewScratch(New(device.HVT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteMargin(Variation{}, WriteBias{Vdd: device.Vdd, VWL: 0.05}); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("want ErrWriteFail, got %v", err)
	}
	if _, err := s.WriteMargin(Variation{}, NominalWrite(device.Vdd)); err != nil {
		t.Fatal(err)
	}

	var outcomes []string
	var steps int64
	for _, ev := range col.Events() {
		if ev.Name != "cell.write_trip" {
			continue
		}
		attrs := map[string]obs.Attr{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a
		}
		outcomes = append(outcomes, attrs["outcome"].S)
		if attrs["steps"].I <= 0 || attrs["probes"].I <= 0 {
			t.Errorf("%s span: steps %d, probes %d, want both > 0", attrs["outcome"].S, attrs["steps"].I, attrs["probes"].I)
		}
		steps += attrs["steps"].I
	}
	if fmt.Sprint(outcomes) != "[write_fail trip]" {
		t.Fatalf("write_trip span outcomes %v, want [write_fail trip]", outcomes)
	}
	if got := reg.CounterValue("circuit.tran.steps") - steps0; got != steps {
		t.Errorf("spans account for %d transient steps, counter advanced %d", steps, got)
	}
	if got := reg.CounterValue("circuit.newton.failures") - fails0; got != 0 {
		t.Errorf("circuit.newton.failures advanced by %d, want 0", got)
	}
	if got := reg.CounterValue("obs.span.attrs_dropped") - dropped0; got != 0 {
		t.Errorf("spans dropped %d attributes past their cap", got)
	}
}
