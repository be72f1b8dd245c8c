// Package sramco is a device-circuit-architecture co-optimization framework
// for minimizing the energy-delay product (EDP) of FinFET SRAM arrays,
// reproducing Shafaei, Afzali-Kusha and Pedram, "Minimizing the Energy-Delay
// Product of SRAM Arrays using a Device-Circuit-Architecture Co-Optimization
// Framework" (DAC 2016).
//
// The framework spans three levels:
//
//   - Device: a calibrated 7 nm FinFET compact model with LVT and HVT
//     flavors (HVT: 2× lower ION, 20× lower IOFF, 10× higher ON/OFF ratio),
//     plus a compact SPICE-like circuit simulator used for all cell and
//     peripheral characterization.
//   - Circuit: read/write assist techniques — Vdd boost (VDDC), negative
//     Gnd (VSSC) and wordline overdrive (VWL) — whose levels are pinned at
//     the minimum values meeting the yield constraint
//     min(HSNM, RSNM, WM) ≥ 0.35·Vdd.
//   - Architecture: the array organization (rows n_r, columns n_c,
//     precharger fins N_pre, write-buffer fins N_wr), searched exhaustively
//     together with VSSC for the minimum-EDP design.
//
// Basic use:
//
//	fw, err := sramco.NewFramework(sramco.TechPaper)
//	if err != nil { ... }
//	opt, err := fw.Optimize(ctx, sramco.Options{ // a 4 KB array
//		CapacityBits: 4096 * 8, Flavor: sramco.HVT, Method: sramco.M2})
//	fmt.Println(opt.Best.Design.Geom.NR, opt.Best.Result.EDP)
package sramco

import (
	"context"
	"sync"

	"sramco/internal/array"
	"sramco/internal/cell"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/exp"
	"sramco/internal/mc"
	"sramco/internal/wire"
)

// Re-exported domain types. These aliases give external code names for the
// types flowing through the public API.
type (
	// Flavor is the cell threshold-voltage flavor (LVT or HVT).
	Flavor = device.Flavor
	// Mode selects paper-calibrated or fully simulated characterization.
	Mode = core.Mode
	// Method is the assist-rail restriction (M1: one extra rail; M2: free).
	Method = core.Method
	// Geometry is the array organization (n_r × n_c, W, N_pre, N_wr).
	Geometry = wire.Geometry
	// Design is a candidate design point: geometry plus assist rails.
	Design = array.Design
	// Result is the full analytical evaluation of a design point.
	Result = array.Result
	// Activity carries the workload factors α (access probability) and β
	// (read fraction) of the paper's Eq. (3)/(5).
	Activity = array.Activity
	// EnergyAccounting selects the Table-3 energy interpretation.
	EnergyAccounting = array.EnergyAccounting
	// Options configures a single optimization run in full detail.
	Options = core.Options
	// SearchSpace bounds the exhaustive search (§5 ranges).
	SearchSpace = core.SearchSpace
	// Objective maps an evaluated design to the scalar being minimized.
	Objective = core.Objective
	// Optimum is the outcome of an optimization run.
	Optimum = core.Optimum
	// SearchStats records the observability counters of a search run
	// (evaluations, skips by reason, sharding, wall time).
	SearchStats = core.SearchStats
	// SearchError is returned when a search aborts on a model error or a
	// context cancellation; it carries the counts accumulated so far.
	SearchError = core.SearchError
	// ReadBias and WriteBias are cell bias conditions for characterization.
	ReadBias  = cell.ReadBias
	WriteBias = cell.WriteBias
	// Table4Row is one optimized configuration (paper Table 4 / Fig. 7).
	Table4Row = exp.Table4Row
	// Headline aggregates the paper's abstract statistics.
	Headline = exp.Headline
	// MCConfig and MCResult drive Monte Carlo yield analysis.
	MCConfig = mc.Config
	MCResult = mc.Result
	// MCSampler selects the Monte Carlo draw sequence (plain, Sobol', LHS).
	MCSampler = mc.Sampler
	// MCCheckpoint and MCMetricStat are the streaming estimates a Monte
	// Carlo run emits at each checkpoint (MonteCarloYield).
	MCCheckpoint = mc.Checkpoint
	MCMetricStat = mc.MetricStat
)

// Re-exported constants.
const (
	LVT = device.LVT
	HVT = device.HVT

	M1 = core.M1
	M2 = core.M2

	TechPaper     = core.TechPaper
	TechSimulated = core.TechSimulated

	WorstCasePath = array.WorstCasePath
	AllColumns    = array.AllColumns

	// Vdd is the nominal supply voltage of the 7 nm library (450 mV).
	Vdd = device.Vdd
	// DeltaVS is the bitline sense voltage ΔVs (120 mV).
	DeltaVS = core.DefaultDeltaVS
)

// Delta returns the paper's minimum acceptable noise margin δ = 0.35·Vdd.
func Delta() float64 { return core.DefaultDelta(Vdd) }

// DefaultSearchSpace returns the paper's §5 variable ranges — the space
// Optimize sweeps when Options.Space is zero.
func DefaultSearchSpace() SearchSpace { return core.DefaultSpace() }

// ParseFlavor parses "lvt"/"hvt" (case-insensitive) into a Flavor; the
// canonical inverse of Flavor.String, shared by the CLIs and the serving
// layer's request canonicalization.
func ParseFlavor(s string) (Flavor, error) { return device.ParseFlavor(s) }

// ParseMethod parses "m1"/"m2" (case-insensitive) into a Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseMode parses "paper"/"simulated" (case-insensitive) into a Mode.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// ObjectiveByName maps "edp" (or ""), "delay", "energy", "area" and "padp"
// to the built-in search objectives. The name, not the function, is the
// canonical form used in serialized requests and cache keys.
func ObjectiveByName(name string) (Objective, bool) { return core.ObjectiveByName(name) }

// ErrInfeasible is wrapped by every "no feasible design" search failure;
// test with errors.Is to distinguish an empty feasible region from a model
// error or a cancellation.
var ErrInfeasible = core.ErrInfeasible

// Framework is a characterized co-optimization context. Construction runs
// circuit simulations; reuse one Framework across optimizations.
type Framework struct {
	core *core.Framework
}

// NewFramework characterizes the 7 nm technology and both cell flavors
// under the given mode.
func NewFramework(mode Mode) (*Framework, error) {
	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	if err != nil {
		return nil, err
	}
	return &Framework{core: fw}, nil
}

// NewFrameworkWithAccounting is NewFramework with an explicit Table-3
// energy-accounting interpretation (ablation knob).
func NewFrameworkWithAccounting(mode Mode, acct EnergyAccounting) (*Framework, error) {
	fw, err := core.NewFramework(mode, core.FrameworkOpts{Accounting: acct})
	if err != nil {
		return nil, err
	}
	return &Framework{core: fw}, nil
}

var (
	defaultOnce sync.Once
	defaultFW   *Framework
	defaultErr  error
)

// Default returns a process-wide shared TechPaper framework.
func Default() (*Framework, error) {
	defaultOnce.Do(func() { defaultFW, defaultErr = NewFramework(TechPaper) })
	return defaultFW, defaultErr
}

// Core exposes the underlying core framework for advanced use (custom
// objectives, search spaces, greedy ablation).
func (f *Framework) Core() *core.Framework { return f.core }

// Fingerprint digests every model input that shapes a search result —
// calibration mode, constants, peripheral characterization, and the
// per-flavor cell surfaces. Equal fingerprints mean bit-identical searches;
// the precomputed design-space catalog is versioned by it.
func (f *Framework) Fingerprint() [32]byte { return f.core.Fingerprint() }

// Optimize runs the exhaustive design search: the minimum of
// opts.Objective (EDP when nil) under the yield constraint. Zero fields
// select the paper's defaults (α = β = 0.5, W = 64, δ = 0.35·Vdd, §5 search
// ranges). The search is deterministic — the returned Optimum is
// bit-identical for any GOMAXPROCS — and stops at the first model error or
// when ctx is done, returning a *SearchError that carries the causal error
// and the counts accumulated up to the abort.
func (f *Framework) Optimize(ctx context.Context, opts Options) (*Optimum, error) {
	return f.core.Optimize(ctx, opts)
}

// Evaluate runs the analytical array model on one explicit design point. A
// hybrid design (Design.Groups set) assigns row groups selected by
// Design.GroupMask to flavor's alternate (LVT↔HVT) and evaluates the array
// under the per-group cell model.
func (f *Framework) Evaluate(flavor Flavor, d Design, act Activity) (*Result, error) {
	return f.core.Evaluate(flavor, d, act)
}

// Rails returns the assist rail voltages (VDDC, VWL) the method pins for a
// flavor before the search.
func (f *Framework) Rails(flavor Flavor, m Method) (vddc, vwl float64, err error) {
	return f.core.Rails(flavor, m)
}

// Table4 reproduces the paper's Table 4 (and the data behind Fig. 7) over
// the given capacities in bits; pass PaperCapacities() for the paper's set.
// Cancellation is threaded through every search.
func (f *Framework) Table4(ctx context.Context, capacityBits []int) ([]Table4Row, error) {
	return exp.Table4(ctx, f.core, capacityBits)
}

// HeadlineStats computes the abstract's aggregate numbers from Table-4
// rows: average EDP reduction and delay penalty of HVT-M2 vs LVT-M2.
func HeadlineStats(rows []Table4Row) (*Headline, error) { return exp.ComputeHeadline(rows) }

// PaperCapacities returns the five capacities of Table 4 / Fig. 7 in bits
// (128 B to 16 KB).
func PaperCapacities() []int { return exp.PaperCapacities() }

// CellReport summarizes one characterized 6T cell at nominal conditions.
type CellReport struct {
	Flavor     Flavor
	HSNM       float64 // hold static noise margin (V)
	RSNM       float64 // read static noise margin, no assist (V)
	WM         float64 // write margin, no assist (V)
	Leakage    float64 // standby leakage power (W)
	ReadI      float64 // read current, no assist (A)
	WriteDelay float64 // cell write delay, no assist (s)
}

// CharacterizeCell measures a nominal 6T cell of the given flavor with the
// bundled circuit simulator at the nominal supply.
func CharacterizeCell(flavor Flavor) (*CellReport, error) {
	c := cell.New(flavor)
	r := &CellReport{Flavor: flavor}
	var err error
	if r.HSNM, err = c.HoldSNM(Vdd); err != nil {
		return nil, err
	}
	if r.RSNM, err = c.ReadSNM(cell.NominalRead(Vdd)); err != nil {
		return nil, err
	}
	if r.WM, err = c.WriteMargin(cell.NominalWrite(Vdd)); err != nil {
		return nil, err
	}
	if r.Leakage, err = c.LeakagePower(Vdd); err != nil {
		return nil, err
	}
	if r.ReadI, err = c.ReadCurrent(cell.NominalRead(Vdd)); err != nil {
		return nil, err
	}
	if r.WriteDelay, err = c.WriteDelay(cell.NominalWrite(Vdd)); err != nil {
		return nil, err
	}
	return r, nil
}

// MonteCarloYield runs a Monte Carlo margin analysis (paper §2/§4: the
// yield justification for δ = 0.35·Vdd): incremental Welford statistics
// with confidence intervals on μ−3σ and the fail fraction, a checkpoint
// passed to emit at each block-aligned interval, and an early stop once
// every requested metric's relative CI is inside cfg.RelCI (0 runs all N).
// emit may be nil. When ctx is done the run abandons pending samples and
// returns the cancellation cause with the done/total counts.
func MonteCarloYield(ctx context.Context, cfg MCConfig, emit func(MCCheckpoint) error) (*MCResult, error) {
	return mc.Run(ctx, cfg, emit)
}

// ParseMCSampler parses a sampler name ("mc", "sobol", "lhs").
func ParseMCSampler(s string) (MCSampler, error) { return mc.ParseSampler(s) }

// DesignPoint pairs a design with its evaluated metrics (see Pareto).
type DesignPoint = core.DesignPoint

// ParetoResult pairs the energy-delay frontier with the search statistics
// of the sweep that produced it (see Pareto).
type ParetoResult = core.ParetoResult

// Pareto returns the full energy-delay frontier of the search space
// instead of the single optimum: every feasible design no other design
// beats on both delay and energy, sorted by increasing delay, with the
// SearchStats of the sweep. Cancellation works as in Optimize. Use
// core.KneePoint (via Core()) to pick a balanced point.
func (f *Framework) Pareto(ctx context.Context, opts Options) (*ParetoResult, error) {
	return f.core.Pareto(ctx, opts)
}

// CornerRow and TempRow are the extension-experiment row types.
type (
	CornerRow = exp.CornerRow
	TempRow   = exp.TempRow
)

// CornerAnalysis characterizes a cell flavor at all five process corners
// under explicit assist biases — sign-off of a chosen operating point
// (extension beyond the paper).
func CornerAnalysis(flavor Flavor, read ReadBias, write WriteBias) ([]CornerRow, error) {
	return exp.CornerAnalysis(flavor, read, write)
}

// TemperatureSweep characterizes a cell flavor across operating
// temperatures (kelvin) at the given read bias (extension).
func TemperatureSweep(flavor Flavor, read ReadBias, temps []float64) ([]TempRow, error) {
	return exp.TemperatureSweep(flavor, read, temps)
}
