// Package array implements the paper's analytical SRAM array model (§4):
// the Table-1 interconnect capacitances, the Table-2 delay/energy components
// (D = C·ΔV/I, E_sw = C·V·ΔV), the Table-3 read/write delay and switching
// energy equations, and the Eq. (2)-(5) totals combining switching and
// leakage energy under the array activity factors.
package array

import (
	"fmt"

	"sramco/internal/obs"
	"sramco/internal/periph"
	"sramco/internal/wire"
)

// Table-2 current coefficients ("obtained for adopted FinFET devices to fit
// the model with SPICE simulations").
const (
	coefCVDD  = 0.30
	coefCVSS  = 0.15
	coefWLrd  = 0.25
	coefWLwr  = 0.18
	coefCOL   = 0.33
	coefBLwr  = 0.50
	coefPRE   = 0.50
	railFins  = periph.RailDriverFins
	driveFins = periph.WLDriverFins
)

// EnergyAccounting selects how per-column components enter the switching
// energy totals (DESIGN.md interpretation note 1).
type EnergyAccounting int

const (
	// WorstCasePath (default) counts each Table-3 component exactly once,
	// as the equations are literally printed in the paper. This is the
	// accounting that reproduces the paper's Fig. 7 behavior, where leakage
	// dominates the energy of large LVT arrays.
	WorstCasePath EnergyAccounting = iota
	// AllColumns additionally charges every bitline on the accessed row
	// (they all discharge and are precharged), W sense amplifiers and write
	// buffers, and W written cells — the physically conservative
	// accounting, provided as an ablation.
	AllColumns
)

func (e EnergyAccounting) String() string {
	if e == WorstCasePath {
		return "worst-case-path"
	}
	return "all-columns"
}

// Tech carries everything the analytical model consults about the
// technology and the chosen cell flavor, whose cell terms it embeds. Build
// one via the core package (or assemble it directly in tests).
type Tech struct {
	Periph *periph.Tech    // characterized LVT peripherals
	Caps   wire.DeviceCaps // per-fin device capacitances entering Table 1

	Vdd     float64 // nominal supply (V)
	DeltaVS float64 // bitline sense voltage ΔVs (V)

	FlavorTerms // the base cell flavor

	// DCDCFactor scales assist-rail energies for DC-DC converter
	// inefficiency ("multiplied by a scaling factor", §5).
	DCDCFactor float64

	Accounting EnergyAccounting
}

// Validate reports structural problems in the technology description.
func (t *Tech) Validate() error {
	if t.Periph == nil {
		return fmt.Errorf("array: nil peripheral tech")
	}
	if err := t.Caps.Validate(); err != nil {
		return err
	}
	// The comparisons are inverted so that a NaN fails them.
	if !(t.Vdd > 0 && t.DeltaVS > 0 && t.DeltaVS < t.Vdd) {
		return fmt.Errorf("array: invalid Vdd=%g / ΔVs=%g", t.Vdd, t.DeltaVS)
	}
	if err := t.FlavorTerms.Validate(); err != nil {
		return err
	}
	if !(t.DCDCFactor >= 1) {
		return fmt.Errorf("array: DC-DC factor %g must be ≥ 1", t.DCDCFactor)
	}
	return nil
}

// validateRails checks the assist rails against the supply: VDDC and VWL
// at or above Vdd (boost and overdrive only), VSSC at or below 0. The
// comparisons are inverted so that a NaN rail fails them.
func validateRails(vdd, vddc, vssc, vwl float64) error {
	if !(vddc >= vdd) {
		return fmt.Errorf("array: VDDC=%g below Vdd=%g", vddc, vdd)
	}
	if !(vssc <= 0) {
		return fmt.Errorf("array: VSSC=%g must be ≤ 0", vssc)
	}
	if !(vwl >= vdd) {
		return fmt.Errorf("array: VWL=%g below Vdd=%g (WLOD only)", vwl, vdd)
	}
	return nil
}

// Design is one candidate array design point: the organization plus the
// assist rail voltages, and — for hybrid arrays — the per-row-group cell
// flavor assignment.
type Design struct {
	Geom wire.Geometry
	VDDC float64 // cell supply rail during read
	VSSC float64 // cell ground rail during read (≤ 0)
	VWL  float64 // wordline rail during write

	// Groups splits the rows into equal contiguous groups ordered from the
	// sense-amp end; GroupMask bit g set means group g uses the alternate
	// cell flavor instead of the base one. 0 (the zero value) selects the
	// paper's single global flavor; omitempty keeps that encoding
	// byte-identical to designs that predate hybrid assignment.
	Groups    int    `json:",omitempty"`
	GroupMask uint32 `json:",omitempty"`
}

// Validate checks the design against the paper's structural constraints.
func (d Design) Validate(t *Tech) error {
	if err := d.Geom.Validate(); err != nil {
		return err
	}
	if err := validateRails(t.Vdd, d.VDDC, d.VSSC, d.VWL); err != nil {
		return err
	}
	if err := d.validateHybrid(); err != nil {
		return err
	}
	return nil
}

// validateHybrid checks the per-row-group assignment fields on their own.
func (d Design) validateHybrid() error {
	if d.Groups == 0 {
		return checkMask(0, d.GroupMask)
	}
	if d.Groups < 2 || d.Groups > MaxGroups || d.Groups&(d.Groups-1) != 0 {
		return fmt.Errorf("array: Groups=%d must be a power of two in [2,%d]", d.Groups, MaxGroups)
	}
	if d.Geom.NR%d.Groups != 0 || d.Geom.NR < d.Groups {
		return fmt.Errorf("array: Groups=%d must divide n_r=%d", d.Groups, d.Geom.NR)
	}
	return checkMask(d.Groups, d.GroupMask)
}

// checkMask checks a group mask against a valid group count (0, or a power
// of two in [2, MaxGroups]).
func checkMask(groups int, mask uint32) error {
	if groups == 0 && mask != 0 {
		return fmt.Errorf("array: GroupMask=%#x requires Groups ≥ 2", mask)
	}
	if groups > 0 && mask >= 1<<uint(groups) {
		return fmt.Errorf("array: GroupMask=%#x has bits beyond Groups=%d", mask, groups)
	}
	return nil
}

// MaxGroups bounds the per-row-group hybrid assignment: at most 8 contiguous
// row groups, so a full assignment fits one mask byte and the search space
// stays enumerable.
const MaxGroups = 8

// FlavorTerms carries the cell-level quantities of one flavor that the
// model reads: the characterized leakage, read-current law, WLOD write
// delay and write energy. Tech embeds the base flavor's; a hybrid array's
// alternate flavor supplies its own via Hybrid.
type FlavorTerms struct {
	LeakCell        float64                          // P_leak,sram: standby leakage power per cell (W)
	IRead           func(vddc, vssc float64) float64 // read current under the assist rails (A)
	WriteDelayCell  func(vwl float64) float64        // cell write delay under WLOD (s)
	WriteEnergyCell float64                          // cell-internal switching energy of one write (J)
}

// Validate reports structural problems in the flavor terms.
func (ft FlavorTerms) Validate() error {
	if !(ft.LeakCell >= 0) { // inverted so that a NaN fails
		return fmt.Errorf("array: negative cell leakage %g", ft.LeakCell)
	}
	if ft.IRead == nil || ft.WriteDelayCell == nil {
		return fmt.Errorf("array: missing IRead/WriteDelayCell providers")
	}
	return nil
}

// Hybrid describes a per-row-group flavor assignment for the evaluator:
// Groups contiguous row groups ordered from the sense-amp end, mask bit g
// selecting the Alt flavor for group g (clear bits keep the Tech's base
// flavor).
type Hybrid struct {
	Groups int
	Mask   uint32
	Alt    FlavorTerms
}

// Activity carries the workload parameters of Eq. (3)/(5).
type Activity struct {
	Alpha float64 // probability of accessing the array in a cycle
	Beta  float64 // fraction of accesses that are reads
}

// Validate checks both factors are probabilities. The inverted comparison
// also rejects NaN, which would otherwise slip through a range check and
// poison every downstream energy term.
func (a Activity) Validate() error {
	if !(a.Alpha >= 0 && a.Alpha <= 1 && a.Beta >= 0 && a.Beta <= 1) {
		return fmt.Errorf("array: activity α=%g β=%g must be within [0,1]", a.Alpha, a.Beta)
	}
	return nil
}

// Breakdown itemizes every Table-2/Table-3 component (seconds and joules).
type Breakdown struct {
	// Divided-wordline split of the WL delays (zero for flat wordlines):
	// DWLRead/DWLWrite then hold the global+AND+local total.
	DWLGlobal, DWLLocal float64

	// Read-path delays.
	DRowDec, DRowDrv, DWLRead, DBLRead float64
	DColDec, DColDrv, DCOL             float64
	DSenseAmp, DPreRead                float64
	// Output-mux select line (zero when no sense amps are shared).
	DMuxSel float64
	// Write-path delays.
	DWLWrite, DBLWrite, DWriteCell, DPreWrite float64
	// Assist rail settling (feasibility, not on the access critical path).
	DCVDD, DCVSS float64

	// Read energies.
	ERowDec, ERowDrv, EWLRead, EBLRead float64
	EColDec, EColDrv, ECOL             float64
	ESenseAmp, EPreRead, ECVDD, ECVSS  float64
	// Output-mux select line (zero when no sense amps are shared).
	EMuxSel float64
	// Write energies.
	EWLWrite, EBLWrite, EWriteCell, EPreWrite float64
}

// Result is the full evaluation of one design point.
type Result struct {
	Design   Design
	Activity Activity

	DRead  float64 // D_rd (Table 3)
	DWrite float64 // D_wr (Table 3)
	DArray float64 // Eq. (2)

	ESwRead  float64 // E_sw,rd (Table 3)
	ESwWrite float64 // E_sw,wr (Table 3)
	ESw      float64 // Eq. (3)
	ELeak    float64 // Eq. (4)
	EArray   float64 // Eq. (5)

	EDP float64 // E_array · D_array

	Area float64 // layout area (m²): wire.Area of the geometry
	PADP float64 // power-area-delay product: EDP · Area

	// RailsSettleInTime reports the paper's §4 requirement that CVDD and
	// CVSS reach their assist levels before the wordline reaches 50 % of
	// Vdd (guaranteed by the fixed 20-fin rail drivers).
	RailsSettleInTime bool

	Parts Breakdown
}

// component computes Eq. (1): D = C·ΔV/I and E = C·V·ΔV.
func component(c, v, dv, i float64) (delay, energy float64) {
	if dv == 0 || c == 0 {
		return 0, 0
	}
	return c * dv / i, c * v * dv
}

// mEvals counts analytical model evaluations — the fundamental unit of
// work of every search (one per candidate design point).
var mEvals = obs.NewCounter("array.evaluations")

// EvaluateHybrid computes the full array model for one explicit design
// point. It validates the technology, the design and the activity, prepares
// the point's chunk on a fresh Evaluator (PrepareHybrid) and evaluates the
// point: the one body behind every single-point evaluation. A hybrid design
// assigns the row groups its GroupMask selects to the alternate flavor
// terms in alt; a design with Groups == 0 ignores alt, so a single-flavor
// design passes FlavorTerms{}. Search loops that sweep (N_pre, N_wr) inside
// a fixed chunk should hold an Evaluator instead and amortize the prepare.
func EvaluateHybrid(t *Tech, d Design, act Activity, alt FlavorTerms) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(t); err != nil {
		return nil, err
	}
	if err := act.Validate(); err != nil {
		return nil, err
	}
	var e Evaluator
	e.init(t, act)
	h := Hybrid{Groups: d.Groups, Mask: d.GroupMask, Alt: alt}
	if err := e.PrepareHybrid(d.Geom, d.VDDC, d.VSSC, d.VWL, h); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := e.EvalInto(d.Geom.Npre, d.Geom.Nwr, res); err != nil {
		return nil, err
	}
	return res, nil
}
