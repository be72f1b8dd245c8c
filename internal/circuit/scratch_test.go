package circuit

import (
	"testing"

	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// scratchInverter builds the swept-input inverter used by the scratch-path
// parity tests.
func scratchInverter() *Circuit {
	lib := device.Default7nm()
	c := New()
	c.AddV("vdd", "VDD", Ground, DC(device.Vdd))
	c.AddV("vin", "IN", Ground, DC(0))
	inverter(c, lib, device.LVT, "IN", "OUT", "VDD")
	return c
}

// TestSweeperMatchesDCSweep proves the scratch sweep path is bit-identical to
// DCSweep on the observed node, including after re-biasing and perturbing a
// FET between calls.
func TestSweeperMatchesDCSweep(t *testing.T) {
	c := scratchInverter()
	xs := num.Linspace(0, device.Vdd, 81)

	sw, err := c.NewSweeper("vin", "OUT")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(xs))

	check := func(tag string) {
		t.Helper()
		ref, err := c.DCSweep("vin", xs)
		if err != nil {
			t.Fatalf("%s: DCSweep: %v", tag, err)
		}
		if err := sw.Sweep(xs, out); err != nil {
			t.Fatalf("%s: Sweep: %v", tag, err)
		}
		for i := range xs {
			if ref[i].V("OUT") != out[i] {
				t.Fatalf("%s: point %d: DCSweep %v != Sweep %v", tag, i, ref[i].V("OUT"), out[i])
			}
		}
	}

	check("nominal")
	// Same sweeper, perturbed device: SetFETDVt must flow into the reused
	// workspace exactly as it does into a fresh assembler.
	c.SetFETDVt("mn_OUT", 0.03)
	check("dvt")
	// And after re-biasing the rail.
	c.SetV("vdd", DC(0.9*device.Vdd))
	check("rebias")
}

func TestSweeperErrors(t *testing.T) {
	c := scratchInverter()
	if _, err := c.NewSweeper("nope", "OUT"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := c.NewSweeper("vin", "NOPE"); err == nil {
		t.Error("unknown node accepted")
	}
	sw, _ := c.NewSweeper("vin", "OUT")
	if err := sw.Sweep([]float64{0, 1}, make([]float64, 1)); err == nil {
		t.Error("mismatched out length accepted")
	}
}

// TestTranRunnerMatchesTransient proves the recording-free transient path
// lands on the same final state as Transient, run twice to catch workspace
// leakage across runs.
func TestTranRunnerMatchesTransient(t *testing.T) {
	c := tranInverter()
	opts := TranOpts{TStop: 100e-12, DT: 1e-12, UIC: true}
	ref, err := c.Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.NewTranRunner()
	for run := 0; run < 2; run++ {
		if err := tr.Run(opts, nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got, want := tr.V(tr.Node("OUT")), ref.Final("OUT"); got != want {
			t.Fatalf("run %d: final %v != Transient final %v", run, got, want)
		}
	}
}

func BenchmarkSweeperVTC(b *testing.B) {
	c := scratchInverter()
	sw, err := c.NewSweeper("vin", "OUT")
	if err != nil {
		b.Fatal(err)
	}
	xs := num.Linspace(0, device.Vdd, 181)
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Sweep(xs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchPathsAllocFree pins the reusable solvers' steady state at zero
// allocations with tracing off: every Newton solve, sweep point and
// transient step iterates in buffers the assembler owns.
func TestScratchPathsAllocFree(t *testing.T) {
	prev := obs.SetSink(nil)
	defer obs.SetSink(prev)

	c := scratchInverter()
	sw, err := c.NewSweeper("vin", "OUT")
	if err != nil {
		t.Fatal(err)
	}
	xs := num.Linspace(0, device.Vdd, 41)
	out := make([]float64, len(xs))
	if a := testing.AllocsPerRun(20, func() {
		if err := sw.Sweep(xs, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Sweeper.Sweep allocates %v times per run, want 0", a)
	}

	tc := tranInverter()
	tr := tc.NewTranRunner()
	opts := TranOpts{TStop: 100e-12, DT: 1e-12, UIC: true}
	if a := testing.AllocsPerRun(20, func() {
		if err := tr.Run(opts, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("TranRunner.Run allocates %v times per run, want 0", a)
	}
}

// tranInverter is an inverter switching under a wordline-like input step,
// loaded by a capacitor.
func tranInverter() *Circuit {
	lib := device.Default7nm()
	c := New()
	c.AddV("vdd", "VDD", Ground, DC(device.Vdd))
	c.AddV("vin", "IN", Ground, Step(0, device.Vdd, 20e-12, 10e-12))
	inverter(c, lib, device.LVT, "IN", "OUT", "VDD")
	c.AddC("cl", "OUT", Ground, 0.1e-15)
	c.SetIC("OUT", device.Vdd)
	return c
}

// TestCertificateStopsRun proves a run ends after the first step its
// certificate settles, leaves the state of that step readable, and that a
// certificate declining every step leaves the full-window result intact.
func TestCertificateStopsRun(t *testing.T) {
	c := tranInverter()
	opts := TranOpts{TStop: 100e-12, DT: 1e-12, UIC: true}
	tr := c.NewTranRunner()
	out := tr.Node("OUT")
	if err := tr.Run(opts, nil); err != nil {
		t.Fatal(err)
	}
	full, fullSteps := tr.V(out), tr.Steps()

	var seen int64
	never := func(tr *TranRunner) bool { seen++; return false }
	if err := tr.Run(opts, never); err != nil {
		t.Fatal(err)
	}
	if tr.V(out) != full || tr.Steps() != fullSteps || seen != fullSteps {
		t.Fatalf("declining certificate: final %v after %d steps (%d consulted), want %v after %d",
			tr.V(out), tr.Steps(), seen, full, fullSteps)
	}

	// Stop once OUT has fallen below half the supply.
	var atStop, prevAtStop float64
	half := func(tr *TranRunner) bool {
		atStop, prevAtStop = tr.V(out), tr.PrevV(out)
		return atStop < device.Vdd/2
	}
	if err := tr.Run(opts, half); err != nil {
		t.Fatal(err)
	}
	if tr.Steps() >= fullSteps || tr.V(out) != atStop || atStop >= device.Vdd/2 || prevAtStop < device.Vdd/2 {
		t.Fatalf("certificate stop: %d of %d steps, V=%v (prev %v)", tr.Steps(), fullSteps, tr.V(out), prevAtStop)
	}
}

// TestEquilibriumCounters proves a certificate's DC attempts add the
// iterations they actually ran to circuit.newton.iterations — a capped
// attempt adds its cap, a converged one fewer — and never count as
// circuit.newton.failures.
func TestEquilibriumCounters(t *testing.T) {
	reg := obs.Default()
	c := tranInverter()
	tr := c.NewTranRunner()
	out := tr.Node("OUT")
	var capped, converged bool
	var cappedIts, convergedIts int64
	var eq float64
	probe := func(tr *TranRunner) bool {
		if tr.Steps() != 40 {
			return false
		}
		i0 := reg.CounterValue("circuit.newton.iterations")
		capped = tr.Equilibrium(1)
		i1 := reg.CounterValue("circuit.newton.iterations")
		converged = tr.Equilibrium(maxNewton)
		i2 := reg.CounterValue("circuit.newton.iterations")
		cappedIts, convergedIts, eq = i1-i0, i2-i1, tr.EqV(out)
		return true
	}
	fails0 := reg.CounterValue("circuit.newton.failures")
	if err := tr.Run(TranOpts{TStop: 100e-12, DT: 1e-12, UIC: true}, probe); err != nil {
		t.Fatal(err)
	}
	if capped || cappedIts != 1 {
		t.Errorf("1-iteration attempt: converged=%v after %d counted iterations, want false after 1", capped, cappedIts)
	}
	if !converged || convergedIts < 2 || convergedIts >= maxNewton {
		t.Errorf("full attempt: converged=%v after %d counted iterations", converged, convergedIts)
	}
	if eq > 0.05*device.Vdd {
		t.Errorf("equilibrium OUT = %v, want near 0 with the input high", eq)
	}
	if got := reg.CounterValue("circuit.newton.failures") - fails0; got != 0 {
		t.Errorf("circuit.newton.failures advanced by %d, want 0", got)
	}
}
