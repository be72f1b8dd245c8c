package cell

import (
	"errors"
	"fmt"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/obs"
)

// The write-trip flip probe: the cell holds '1' on Q, BL drives the '0', and
// the wordline sits at a DC level for a 300 ps backward-Euler window with
// the storage nodes loaded by their physical capacitances. The probe flips
// when Q < QB at the end of the window.
const (
	probeStop = 300e-12 // s, settling window of one probe
	probeDT   = 0.5e-12 // s, backward-Euler step
)

// writeTripTolV is the wordline-interval width at which every write-trip
// bisection stops, so the trip lies within writeTripTolV/2 = 0.25 mV of the
// flip threshold: far below the ΔVt-induced write-margin spread (σ_WM ~
// tens of mV) and below the ≥ 0.82 mV by which each pinned VWL* grid level
// clears δ (DESIGN.md §12.1).
const writeTripTolV = 0.5e-3

// Certificates that end a probe before 300 ps once its outcome is certain
// (DESIGN.md §12.1). With VBL = 0 the cell is cooperative in (Q, −QB) and
// C/dt = 2.6·10⁻⁴ S outweighs the 1-fin conductances, so every backward-
// Euler step is order-preserving. A probe starts from the top of that order
// (Q = Vdd, QB = 0), so its trajectory moves Q down and QB up monotonically:
//
//   - flip: once QB > Q and the last step moved Q down and QB up, every
//     later step does the same, so Q < QB at 300 ps;
//   - no flip: once the state lies above a DC equilibrium E with Q_E > QB_E,
//     it stays above E through 300 ps, so Q > QB at 300 ps.
//
// TestWriteProbePremise checks the order-preservation premise over the
// domain below; outside it the probe integrates the full window.
const (
	// certMarginV is the margin every certificate comparison demands. At
	// C/dt·certMarginV = 2.6·10⁻¹³ A it exceeds the 10⁻¹³ A KCL residual a
	// converged Newton solve may leave, so a step that moved a node by more
	// than certMarginV moved it in the exact backward-Euler direction. It is
	// also 100× the 10⁻¹¹ V update tolerance that bounds a converged
	// equilibrium's error.
	certMarginV = 1e-9
	// certEqIters caps one equilibrium attempt. From a state above a
	// well-conditioned equilibrium damped Newton converges in a handful of
	// iterations; an attempt that needs more is near a fold or heading for
	// the flipped state, and is declined rather than pursued.
	certEqIters = 12

	// The certificates' domain: the ranges TestWriteProbePremise sweeps.
	certVddMin     = 0.30 // V, lowest supply of the Vdd-scaling study
	certVddMax     = 0.50 // V
	certOverdriveV = 0.30 // V, WL ≤ Vdd + 0.3, the VWL* search ceiling
	certDVtV       = 0.60 // V, |ΔVt| per device: 3σ at the maximum MC tilt (8 × 25 mV)
)

// writeProbe is the write-trip search's flip probe: the full-cell write
// netlist with its storage-node capacitances, a reusable transient runner,
// and the certificates that end a probe once its outcome is certain. One
// probe serves every trip search of a Scratch.
type writeProbe struct {
	lib    *device.Library
	flavor device.Flavor
	ckt    *circuit.Circuit
	tran   *circuit.TranRunner
	settle circuit.Certificate // p.settled, bound once so a probe allocates no closure
	q, qb  int                 // storage-node indices

	vdd, vbl, vwl circuit.Level // the rails: CVDD and BLB at vdd, BL at vbl, the wordline at vwl

	certified bool  // the loaded bias lies in the certificates' domain
	nextEq    int64 // step of the next equilibrium attempt
	eqGap     int64 // steps between attempts; doubles after each decline

	probes int   // flip probes of the current trip search
	steps  int64 // transient steps of the current trip search
}

func newWriteProbe(lib *device.Library, flavor device.Flavor) *writeProbe {
	c := Cell{Lib: lib, Flavor: flavor}
	p := &writeProbe{lib: lib, flavor: flavor}
	p.ckt = c.writeCell(&p.vwl, 0, 0)
	p.ckt.SetV("vcvdd", &p.vdd)
	p.ckt.SetV("vblb", &p.vdd)
	p.ckt.SetV("vbl", &p.vbl)
	p.tran = p.ckt.NewTranRunner()
	p.q, p.qb = p.tran.Node("Q"), p.tran.Node("QB")
	p.settle = p.settled
	return p
}

// load applies a cell perturbation and write bias to the netlist.
func (p *writeProbe) load(dvt Variation, b WriteBias) {
	for t := range NumTransistors {
		p.ckt.SetFETDVt(t.String(), dvt[t])
	}
	p.vdd.V, p.vbl.V = b.Vdd, b.VBL
	p.ckt.SetIC("Q", b.Vdd)
	p.certified = p.inDomain(dvt, b)
}

// inDomain reports whether the certificates' premise covers every probe of
// a trip search under bias b: VBL = 0 (a negative bitline drives Q below
// ground, where the pull-down conducts backwards and the cell is no longer
// cooperative), the supply and overdrive ranges, and every transistor within
// certDVtV of the default library's device, counting a corner's global
// shift. Any other model difference leaves the premise unchecked.
func (p *writeProbe) inDomain(dvt Variation, b WriteBias) bool {
	if b.VBL != 0 || b.Vdd < certVddMin || b.Vdd > certVddMax || b.VWL > b.Vdd+certOverdriveV {
		return false
	}
	ref := device.Default7nm()
	for t := Transistor(0); t < NumTransistors; t++ {
		pol := device.NFET
		if t%3 == PUL {
			pol = device.PFET
		}
		m, r := p.lib.Model(pol, p.flavor), ref.Model(pol, p.flavor)
		same := m.Params
		same.Vt0 = r.Vt0
		if shift := m.Vt0 - r.Vt0 + dvt[t]; same != r.Params || shift < -certDVtV || shift > certDVtV {
			return false
		}
	}
	return true
}

// flips runs one probe at wordline level vwl and reports whether the cell
// flipped.
func (p *writeProbe) flips(vwl float64) (bool, error) {
	p.probes++
	mWriteProbes.Inc()
	p.vwl.V = vwl
	var settle circuit.Certificate
	if p.certified {
		settle = p.settle
		p.nextEq, p.eqGap = 1, 1
	}
	err := p.tran.Run(circuit.TranOpts{TStop: probeStop, DT: probeDT, UIC: true}, settle)
	p.steps += p.tran.Steps()
	if err != nil {
		return false, err
	}
	// Where a certificate stopped the run, the current state already
	// orders Q and QB as they will be at 300 ps.
	return p.tran.V(p.q) < p.tran.V(p.qb), nil
}

// settled is the probe's certificate (see the constants above). Equilibrium
// attempts start at step 1 and back off exponentially while they decline,
// so a probe that flips pays for at most ~10 of them.
func (p *writeProbe) settled(tr *circuit.TranRunner) bool {
	q, qb := tr.V(p.q), tr.V(p.qb)
	if qb-q > certMarginV {
		return q-tr.PrevV(p.q) < -certMarginV && qb-tr.PrevV(p.qb) > certMarginV
	}
	if q-qb <= certMarginV || tr.Steps() < p.nextEq {
		return false
	}
	if tr.Equilibrium(certEqIters) {
		qe, qbe := tr.EqV(p.q), tr.EqV(p.qb)
		if qe-qbe > certMarginV && q >= qe+certMarginV && qb <= qbe-certMarginV {
			return true
		}
	}
	p.nextEq = tr.Steps() + p.eqGap
	p.eqGap *= 2
	return false
}

// trip bisects the flip threshold over [0, vMax] until the interval is no
// wider than writeTripTolV and returns its midpoint. The cell.write_trip
// span ends on every return, with the search's outcome, probe count and
// total transient steps.
func (p *writeProbe) trip(vMax float64) (float64, error) {
	sp := obs.StartSpan("cell.write_trip")
	mWriteTrips.Inc()
	p.probes, p.steps = 0, 0
	trip, err := p.bisect(vMax)
	switch {
	case err == nil:
		sp.Str("outcome", "trip")
		sp.Float("trip", trip)
	case errors.Is(err, ErrWriteFail):
		sp.Str("outcome", "write_fail")
	default:
		sp.Str("outcome", "error")
	}
	sp.Int("probes", int64(p.probes))
	sp.Int("steps", p.steps)
	sp.End()
	return trip, err
}

func (p *writeProbe) bisect(vMax float64) (float64, error) {
	lo, hi := 0.0, vMax
	fl, err := p.flips(lo)
	if err != nil {
		return 0, fmt.Errorf("cell: write trip at WL=0: %w", err)
	}
	if fl {
		return 0, nil // flips even with WL off — degenerate
	}
	fh, err := p.flips(hi)
	if err != nil {
		return 0, fmt.Errorf("cell: write trip at WL=%g: %w", hi, err)
	}
	if !fh {
		return 0, fmt.Errorf("cell: write fails even at WL=%gV: %w", hi, ErrWriteFail)
	}
	for hi-lo > writeTripTolV {
		mid := 0.5 * (lo + hi)
		fm, err := p.flips(mid)
		if err != nil {
			return 0, fmt.Errorf("cell: write trip at WL=%g: %w", mid, err)
		}
		if fm {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}
