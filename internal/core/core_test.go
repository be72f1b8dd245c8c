package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

var (
	paperOnce sync.Once
	paperFW   *Framework
	paperErr  error

	simOnce sync.Once
	simFW   *Framework
	simErr  error
)

func paperFramework(t *testing.T) *Framework {
	t.Helper()
	paperOnce.Do(func() { paperFW, paperErr = NewFramework(TechPaper, FrameworkOpts{}) })
	if paperErr != nil {
		t.Fatalf("NewFramework(TechPaper): %v", paperErr)
	}
	return paperFW
}

func simFramework(t *testing.T) *Framework {
	t.Helper()
	if testing.Short() {
		t.Skip("TechSimulated characterization skipped in -short mode")
	}
	simOnce.Do(func() { simFW, simErr = NewFramework(TechSimulated, FrameworkOpts{}) })
	if simErr != nil {
		t.Fatalf("NewFramework(TechSimulated): %v", simErr)
	}
	return simFW
}

func TestPaperFrameworkAnchors(t *testing.T) {
	f := paperFramework(t)
	lvt, hvt := f.Cells[device.LVT], f.Cells[device.HVT]
	if lvt.VDDCStar != 0.640 || lvt.VWLStar != 0.490 {
		t.Errorf("LVT rails = %g/%g, want 0.640/0.490", lvt.VDDCStar, lvt.VWLStar)
	}
	if hvt.VDDCStar != 0.550 || hvt.VWLStar != 0.540 {
		t.Errorf("HVT rails = %g/%g, want 0.550/0.540", hvt.VDDCStar, hvt.VWLStar)
	}
	if lvt.LeakCell != 1.692e-9 || hvt.LeakCell != 0.082e-9 {
		t.Errorf("leakage anchors = %g/%g", lvt.LeakCell, hvt.LeakCell)
	}
	// The paper's HVT read-current law at VDDC=550mV, VSSC=0.
	want := 9.5e-5 * math.Pow(0.55-0.335, 1.3)
	if got := hvt.IRead(0.55, 0); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("HVT IRead(0.55, 0) = %g, want %g", got, want)
	}
	// LVT read current ≈ 2× HVT at the nominal read condition.
	if r := lvt.IRead(0.45, 0) / hvt.IRead(0.45, 0); math.Abs(r-2) > 0.01 {
		t.Errorf("LVT/HVT nominal read-current ratio = %g, want 2", r)
	}
	// Write-delay LUT decreases with overdrive.
	if !(hvt.WriteDelayCell(0.65) < hvt.WriteDelayCell(0.45)) {
		t.Error("write delay must fall with WL overdrive")
	}
}

func TestRails(t *testing.T) {
	f := paperFramework(t)
	// M1: a single shared high rail at max(VDDC*, VWL*).
	vddc, vwl, err := f.Rails(device.LVT, M1)
	if err != nil {
		t.Fatal(err)
	}
	if vddc != 0.640 || vwl != 0.640 {
		t.Errorf("LVT M1 rails = %g/%g, want 0.640/0.640", vddc, vwl)
	}
	vddc, vwl, err = f.Rails(device.HVT, M1)
	if err != nil {
		t.Fatal(err)
	}
	if vddc != 0.550 || vwl != 0.550 {
		t.Errorf("HVT M1 rails = %g/%g, want 0.550/0.550", vddc, vwl)
	}
	// M2: independent starred rails.
	vddc, vwl, err = f.Rails(device.LVT, M2)
	if err != nil {
		t.Fatal(err)
	}
	if vddc != 0.640 || vwl != 0.490 {
		t.Errorf("LVT M2 rails = %g/%g, want 0.640/0.490", vddc, vwl)
	}
}

func TestOptimize4KBHVTM2(t *testing.T) {
	f := paperFramework(t)
	opt, err := f.Optimize(context.Background(), Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	d := opt.Best.Design
	if d.Geom.Bits() != 32768 {
		t.Fatalf("best design capacity %d bits", d.Geom.Bits())
	}
	// The paper's 4KB HVT-M2 optimum uses a strong negative Gnd (-240 mV)
	// and a tall aspect ratio; require the searched optimum to use a
	// substantial negative rail.
	if d.VSSC > -0.10 {
		t.Errorf("optimal VSSC = %g, expected strongly negative (paper: -0.240)", d.VSSC)
	}
	if d.Geom.NR < d.Geom.NC {
		t.Errorf("optimal aspect n_r=%d < n_c=%d; paper prefers more rows with negative Gnd", d.Geom.NR, d.Geom.NC)
	}
	// Branch-and-bound skips most points, but evaluated + bound-pruned must
	// still cover the full candidate space.
	if covered := opt.Stats.Evaluated + opt.Stats.PrunedBound; covered < 10000 {
		t.Errorf("exhaustive search covered only %d points", covered)
	}
}

func TestM2NeverWorseThanM1(t *testing.T) {
	f := paperFramework(t)
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		for _, bits := range []int{1024, 8192, 131072} {
			m1, err := f.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: flavor, Method: M1})
			if err != nil {
				t.Fatal(err)
			}
			m2, err := f.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: flavor, Method: M2})
			if err != nil {
				t.Fatal(err)
			}
			if m2.Best.Result.EDP > m1.Best.Result.EDP*(1+1e-9) {
				t.Errorf("%v %d bits: M2 EDP (%g) worse than M1 (%g) — more rails can never hurt",
					flavor, bits, m2.Best.Result.EDP, m1.Best.Result.EDP)
			}
		}
	}
}

func TestDelayGrowsWithCapacity(t *testing.T) {
	f := paperFramework(t)
	prev := 0.0
	for _, bits := range []int{1024, 8192, 32768, 131072} {
		opt, err := f.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: M2})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Best.Result.DArray < prev {
			t.Errorf("optimal delay shrank with capacity at %d bits", bits)
		}
		prev = opt.Best.Result.DArray
	}
}

func TestHeadlineEDPReduction(t *testing.T) {
	// Paper abstract: for 1KB-16KB arrays, HVT-M2 achieves on average 59%
	// lower EDP than LVT-M2 with ≤12% performance penalty. On our substrate
	// we require the same direction with generous bands: ≥30% average EDP
	// reduction and ≤30% delay penalty.
	f := paperFramework(t)
	var edpGain, worstPenalty float64
	caps := []int{8192, 32768, 131072} // 1KB, 4KB, 16KB
	for _, bits := range caps {
		lvt, err := f.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.LVT, Method: M2})
		if err != nil {
			t.Fatal(err)
		}
		hvt, err := f.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: M2})
		if err != nil {
			t.Fatal(err)
		}
		red := 1 - hvt.Best.Result.EDP/lvt.Best.Result.EDP
		pen := hvt.Best.Result.DArray/lvt.Best.Result.DArray - 1
		t.Logf("%d bits: EDP reduction %.0f%%, delay penalty %.0f%%", bits, red*100, pen*100)
		edpGain += red
		if pen > worstPenalty {
			worstPenalty = pen
		}
	}
	if avg := edpGain / float64(len(caps)); avg < 0.30 {
		t.Errorf("average EDP reduction %.0f%%, want ≥30%% (paper: 59%%)", avg*100)
	}
	if worstPenalty > 0.30 {
		t.Errorf("worst delay penalty %.0f%%, want ≤30%% (paper: 12%%)", worstPenalty*100)
	}
}

func TestGreedyMatchesOrApproachesExhaustive(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
	full, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := f.GreedyOptimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The exhaustive search prunes by bound, so compare greedy's cost
	// against the space the exhaustive sweep had to cover, not just the
	// points its bound let through.
	if covered := full.Stats.Evaluated + full.Stats.PrunedBound; greedy.Stats.Evaluated >= covered {
		t.Errorf("greedy used %d evals, exhaustive covered %d — greedy must be cheaper", greedy.Stats.Evaluated, covered)
	}
	if ratio := greedy.Best.Result.EDP / full.Best.Result.EDP; ratio > 1.25 {
		t.Errorf("greedy EDP %.2f× the exhaustive optimum, want ≤1.25×", ratio)
	}
	if greedy.Best.Result.EDP < full.Best.Result.EDP*(1-1e-9) {
		t.Error("greedy found a better point than the exhaustive search — search space mismatch")
	}
}

func TestAlternativeObjectives(t *testing.T) {
	f := paperFramework(t)
	base := Options{CapacityBits: 32768, Flavor: device.HVT, Method: M2}
	edp, err := f.Optimize(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	dOpts := base
	dOpts.Objective = ObjectiveDelay
	dOpt, err := f.Optimize(context.Background(), dOpts)
	if err != nil {
		t.Fatal(err)
	}
	eOpts := base
	eOpts.Objective = ObjectiveEnergy
	eOpt, err := f.Optimize(context.Background(), eOpts)
	if err != nil {
		t.Fatal(err)
	}
	if dOpt.Best.Result.DArray > edp.Best.Result.DArray*(1+1e-9) {
		t.Error("delay-optimal design slower than EDP-optimal")
	}
	if eOpt.Best.Result.EArray > edp.Best.Result.EArray*(1+1e-9) {
		t.Error("energy-optimal design burns more than EDP-optimal")
	}
}

func TestOptimizeValidation(t *testing.T) {
	f := paperFramework(t)
	if _, err := f.Optimize(context.Background(), Options{CapacityBits: 1000, Flavor: device.HVT}); err == nil {
		t.Error("non-power-of-two capacity accepted")
	}
	if _, err := f.Optimize(context.Background(), Options{CapacityBits: 2, Flavor: device.HVT}); err == nil {
		t.Error("tiny capacity accepted")
	}
}

// TestNaNRailsAreErrors puts a NaN in each assist rail of a valid design:
// array.EvaluateHybrid, Evaluator.Rails and Framework.Evaluate must each reject
// it, as they accept the design itself.
func TestNaNRailsAreErrors(t *testing.T) {
	f := paperFramework(t)
	tech, err := f.ArrayTech(device.HVT)
	if err != nil {
		t.Fatal(err)
	}
	act := array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta}
	ev, err := array.NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	vddc, vwl, err := f.Rails(device.HVT, M2)
	if err != nil {
		t.Fatal(err)
	}
	good := array.Design{Geom: wireGeom(128, 64, 1, 2, 2), VDDC: vddc, VSSC: -0.05, VWL: vwl}
	paths := map[string]func(array.Design) error{
		"array.EvaluateHybrid": func(d array.Design) error {
			_, err := array.EvaluateHybrid(tech, d, act, array.FlavorTerms{})
			return err
		},
		"Evaluator.Rails": func(d array.Design) error {
			_, err := ev.Rails(d.VDDC, d.VSSC, d.VWL, nil)
			return err
		},
		"Framework.Evaluate": func(d array.Design) error { _, err := f.Evaluate(device.HVT, d, act); return err },
	}
	for path, eval := range paths {
		if err := eval(good); err != nil {
			t.Fatalf("%s rejects the valid design: %v", path, err)
		}
	}
	for _, tc := range []struct {
		rail string
		set  func(*array.Design)
	}{
		{"VDDC", func(d *array.Design) { d.VDDC = math.NaN() }},
		{"VSSC", func(d *array.Design) { d.VSSC = math.NaN() }},
		{"VWL", func(d *array.Design) { d.VWL = math.NaN() }},
	} {
		d := good
		tc.set(&d)
		for path, eval := range paths {
			if err := eval(d); err == nil {
				t.Errorf("%s accepts %s = NaN", path, tc.rail)
			}
		}
	}
}

func TestModeAndMethodStrings(t *testing.T) {
	if TechPaper.String() == TechSimulated.String() {
		t.Error("mode strings collide")
	}
	if M1.String() != "M1" || M2.String() != "M2" {
		t.Error("method strings")
	}
}

func TestSimulatedFrameworkShape(t *testing.T) {
	f := simFramework(t)
	lvt, hvt := f.Cells[device.LVT], f.Cells[device.HVT]
	// Ordering relations the paper establishes must hold in the fully
	// simulated mode too.
	if !(hvt.LeakCell < lvt.LeakCell/10) {
		t.Errorf("simulated leakage: HVT %g should be ≫ lower than LVT %g", hvt.LeakCell, lvt.LeakCell)
	}
	if !(hvt.VWLStar > lvt.VWLStar) {
		t.Errorf("simulated VWL*: HVT %g should exceed LVT %g", hvt.VWLStar, lvt.VWLStar)
	}
	if !(hvt.IRead(0.55, 0) < lvt.IRead(0.64, 0)) {
		t.Error("simulated starred-rail read current: HVT should be below LVT")
	}
	// Negative Gnd must boost the simulated read current substantially.
	if gain := hvt.IRead(0.55, -0.24) / hvt.IRead(0.55, 0); gain < 2 {
		t.Errorf("simulated VSSC=-240mV read-current gain %.2f, want ≥2", gain)
	}
}

// TestNewFrameworkIndependentOfGOMAXPROCS checks that the concurrent
// set-up characterizes the same technology on one thread as on four: the
// fingerprint, which hashes every characterized number, is equal in both
// modes.
func TestNewFrameworkIndependentOfGOMAXPROCS(t *testing.T) {
	for _, mode := range []Mode{TechPaper, TechSimulated} {
		var fps [2][32]byte
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			f, err := NewFramework(mode, FrameworkOpts{})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%v, GOMAXPROCS %d: %v", mode, procs, err)
			}
			fps[i] = f.Fingerprint()
		}
		if fps[0] != fps[1] {
			t.Errorf("%v: fingerprint %x at GOMAXPROCS 1, %x at 4", mode, fps[0][:8], fps[1][:8])
		}
	}
}

// TestNewFrameworkReportsLVTErrorFirst checks the error order of the
// concurrent set-up: when both flavors fail, the LVT error is reported,
// whichever finishes first.
func TestNewFrameworkReportsLVTErrorFirst(t *testing.T) {
	_, err := NewFramework(Mode(7), FrameworkOpts{})
	if want := "core: characterizing 6T-LVT: core: unknown mode 7"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestParseMode checks the -mode names every CLI accepts, in any letter
// case, and the named error for anything else.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"paper": TechPaper, "PAPER": TechPaper, "simulated": TechSimulated, "Simulated": TechSimulated} {
		if got, err := ParseMode(s); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "paper-calibrated", "sim"} {
		if _, err := ParseMode(s); err == nil || !strings.Contains(err.Error(), "want paper or simulated") {
			t.Errorf("ParseMode(%q) error = %v, want a named error", s, err)
		}
	}
}

func TestSimulatedOptimizeAgreesInShape(t *testing.T) {
	fSim := simFramework(t)
	fPaper := paperFramework(t)
	bits := 32768
	for _, m := range []Method{M1, M2} {
		sim, err := fSim.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		pap, err := fPaper.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		// Same structural direction: M2 uses negative Gnd in both modes.
		if m == M2 {
			if sim.Best.Design.VSSC > -0.05 || pap.Best.Design.VSSC > -0.05 {
				t.Errorf("M2 optimum should use negative Gnd: sim %g, paper %g",
					sim.Best.Design.VSSC, pap.Best.Design.VSSC)
			}
		}
	}
	// The two modes agree that HVT-M2 beats HVT-M1 on EDP.
	simM1, _ := fSim.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: M1})
	simM2, _ := fSim.Optimize(context.Background(), Options{CapacityBits: bits, Flavor: device.HVT, Method: M2})
	if simM2.Best.Result.EDP >= simM1.Best.Result.EDP {
		t.Error("simulated mode: M2 should beat M1 on EDP")
	}
}

func TestWorstCaseAccountingAblation(t *testing.T) {
	// The headline conclusion (HVT-M2 beats LVT-M2 on EDP for large arrays)
	// must be insensitive to the energy-accounting interpretation.
	fw, err := NewFramework(TechPaper, FrameworkOpts{Accounting: array.WorstCasePath})
	if err != nil {
		t.Fatal(err)
	}
	lvt, err := fw.Optimize(context.Background(), Options{CapacityBits: 131072, Flavor: device.LVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	hvt, err := fw.Optimize(context.Background(), Options{CapacityBits: 131072, Flavor: device.HVT, Method: M2})
	if err != nil {
		t.Fatal(err)
	}
	if hvt.Best.Result.EDP >= lvt.Best.Result.EDP {
		t.Errorf("worst-case-path accounting flips the conclusion: HVT %g vs LVT %g",
			hvt.Best.Result.EDP, lvt.Best.Result.EDP)
	}
}
