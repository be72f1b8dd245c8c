package exp

import (
	"fmt"

	"sramco/internal/assist"
	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/wire"
)

// fig3Column is the column depth assumed by the Fig. 3 bitline-delay curves
// ("a column with 64 SRAM cells is assumed").
const fig3Column = 64

// fig3DeltaVS is the sense voltage used for the BL-delay curves (§5).
const fig3DeltaVS = 0.120

// Fig2Row is one supply point of Fig. 2: hold SNM and leakage power of both
// flavors.
type Fig2Row struct {
	Vdd     float64
	HSNMLVT float64
	HSNMHVT float64
	LeakLVT float64
	LeakHVT float64
}

// Fig2 characterizes HSNM (Fig. 2(a)) and leakage power (Fig. 2(b)) of the
// 6T-LVT and 6T-HVT cells over the supply sweep.
func Fig2(vdds []float64) ([]Fig2Row, error) {
	lvt, hvt := cell.New(device.LVT), cell.New(device.HVT)
	rows := make([]Fig2Row, 0, len(vdds))
	for _, v := range vdds {
		r := Fig2Row{Vdd: v}
		var err error
		if r.HSNMLVT, err = lvt.HoldSNM(v); err != nil {
			return nil, fmt.Errorf("exp: Fig2 LVT HSNM at %gV: %w", v, err)
		}
		if r.HSNMHVT, err = hvt.HoldSNM(v); err != nil {
			return nil, fmt.Errorf("exp: Fig2 HVT HSNM at %gV: %w", v, err)
		}
		if r.LeakLVT, err = lvt.LeakagePower(v); err != nil {
			return nil, fmt.Errorf("exp: Fig2 LVT leakage at %gV: %w", v, err)
		}
		if r.LeakHVT, err = hvt.LeakagePower(v); err != nil {
			return nil, fmt.Errorf("exp: Fig2 HVT leakage at %gV: %w", v, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Fig2Table renders Fig. 2 rows.
func Fig2Table(rows []Fig2Row) *Table {
	t := &Table{
		Title:   "Fig. 2: HSNM and leakage power vs Vdd (6T-LVT vs 6T-HVT)",
		Headers: []string{"Vdd (mV)", "HSNM LVT (mV)", "HSNM HVT (mV)", "P_leak LVT (nW)", "P_leak HVT (nW)"},
	}
	for _, r := range rows {
		t.AddRow(r.Vdd*1e3, r.HSNMLVT*1e3, r.HSNMHVT*1e3, r.LeakLVT*1e9, r.LeakHVT*1e9)
	}
	return t
}

// Fig3aResult compares RSNM and read current of 6T-HVT normalized to 6T-LVT
// at nominal bias (Fig. 3(a); paper: RSNM 1.9×, I_read ≈ 0.5×).
type Fig3aResult struct {
	RSNMLVT, RSNMHVT   float64
	IReadLVT, IReadHVT float64
}

// RSNMRatio returns RSNM_HVT / RSNM_LVT.
func (r Fig3aResult) RSNMRatio() float64 { return r.RSNMHVT / r.RSNMLVT }

// IReadRatio returns I_read,HVT / I_read,LVT.
func (r Fig3aResult) IReadRatio() float64 { return r.IReadHVT / r.IReadLVT }

// Fig3a measures the flavor comparison at nominal read bias.
func Fig3a(vdd float64) (*Fig3aResult, error) {
	lvt, hvt := cell.New(device.LVT), cell.New(device.HVT)
	b := cell.NominalRead(vdd)
	var res Fig3aResult
	var err error
	if res.RSNMLVT, err = lvt.ReadSNM(b); err != nil {
		return nil, err
	}
	if res.RSNMHVT, err = hvt.ReadSNM(b); err != nil {
		return nil, err
	}
	if res.IReadLVT, err = lvt.ReadCurrent(b); err != nil {
		return nil, err
	}
	if res.IReadHVT, err = hvt.ReadCurrent(b); err != nil {
		return nil, err
	}
	return &res, nil
}

// AssistRow is one knob point of a read-assist sweep (Figs. 3(b)-(d)):
// margin and 64-cell-column bitline delay.
type AssistRow struct {
	V       float64 // the technique's knob voltage
	RSNM    float64
	IRead   float64
	BLDelay float64 // C_BL(64 rows)·ΔVs / I_read
}

// readAssistSweep evaluates a read-assist technique over its knob values.
func readAssistSweep(flavor device.Flavor, vdd float64, tech assist.Technique, knobs []float64) ([]AssistRow, error) {
	c := cell.New(flavor)
	caps := deviceCaps()
	geom := wire.Geometry{NR: fig3Column, NC: 64, W: 64, Npre: 1, Nwr: 1}
	cbl := wire.BL(geom, caps)
	rows := make([]AssistRow, 0, len(knobs))
	for _, v := range knobs {
		b := tech.ApplyRead(vdd, v)
		row := AssistRow{V: v}
		var err error
		if row.RSNM, err = c.ReadSNM(b); err != nil {
			return nil, fmt.Errorf("exp: RSNM at %gV: %w", v, err)
		}
		if row.IRead, err = c.ReadCurrent(b); err != nil {
			return nil, fmt.Errorf("exp: I_read at %gV: %w", v, err)
		}
		row.BLDelay = cbl * fig3DeltaVS / row.IRead
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3b sweeps the Vdd-boost level VDDC (Fig. 3(b)).
func Fig3b(flavor device.Flavor, vdd float64, vddcs []float64) ([]AssistRow, error) {
	return readAssistSweep(flavor, vdd, assist.VddBoost, vddcs)
}

// Fig3c sweeps the negative-Gnd level VSSC (Fig. 3(c)).
func Fig3c(flavor device.Flavor, vdd float64, vsscs []float64) ([]AssistRow, error) {
	return readAssistSweep(flavor, vdd, assist.NegativeGnd, vsscs)
}

// Fig3d sweeps the wordline underdrive level VWL (Fig. 3(d)).
func Fig3d(flavor device.Flavor, vdd float64, vwls []float64) ([]AssistRow, error) {
	return readAssistSweep(flavor, vdd, assist.WLUnderdrive, vwls)
}

// AssistTable renders a read-assist sweep.
func AssistTable(title, knob string, rows []AssistRow) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{knob + " (mV)", "RSNM (mV)", "I_read (µA)", "BL delay, 64 cells (ps)"},
	}
	for _, r := range rows {
		t.AddRow(r.V*1e3, r.RSNM*1e3, r.IRead*1e6, r.BLDelay*1e12)
	}
	return t
}

// WriteAssistRow is one knob point of a write-assist sweep (Fig. 5).
type WriteAssistRow struct {
	V          float64
	WM         float64
	WriteDelay float64
}

// Fig5a sweeps the wordline-overdrive level (Fig. 5(a)).
func Fig5a(flavor device.Flavor, vdd float64, vwls []float64) ([]WriteAssistRow, error) {
	return writeAssistSweep(flavor, vdd, assist.WLOverdrive, vwls)
}

// Fig5b sweeps the negative-BL level (Fig. 5(b)).
func Fig5b(flavor device.Flavor, vdd float64, vbls []float64) ([]WriteAssistRow, error) {
	return writeAssistSweep(flavor, vdd, assist.NegativeBL, vbls)
}

// writeAssistSweep evaluates a write-assist technique over its knob values.
func writeAssistSweep(flavor device.Flavor, vdd float64, tech assist.Technique, knobs []float64) ([]WriteAssistRow, error) {
	c := cell.New(flavor)
	rows := make([]WriteAssistRow, 0, len(knobs))
	for _, v := range knobs {
		b := tech.ApplyWrite(vdd, v)
		row := WriteAssistRow{V: v}
		var err error
		if row.WM, err = c.WriteMargin(b); err != nil {
			return nil, fmt.Errorf("exp: WM at %gV: %w", v, err)
		}
		if row.WriteDelay, err = c.WriteDelay(b); err != nil {
			return nil, fmt.Errorf("exp: write delay at %gV: %w", v, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAssistTable renders a write-assist sweep.
func WriteAssistTable(title, knob string, rows []WriteAssistRow) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{knob + " (mV)", "WM (mV)", "cell write delay (ps)"},
	}
	for _, r := range rows {
		t.AddRow(r.V*1e3, r.WM*1e3, r.WriteDelay*1e12)
	}
	return t
}

// deviceCaps assembles the Table-1 capacitance inputs from the default
// library.
func deviceCaps() wire.DeviceCaps {
	lib := device.Default7nm()
	return wire.DeviceCaps{
		Cdn: lib.NLVT.CdFin, Cdp: lib.PLVT.CdFin,
		Cgn: lib.NLVT.CgFin, Cgp: lib.PLVT.CgFin,
	}
}

// ReadCurrentFitResult reports the power-law fit of the simulated read
// current against the paper's published HVT law (§5).
type ReadCurrentFitResult struct {
	A, B       float64 // fitted exponent and coefficient
	PaperA     float64 // 1.3
	PaperB     float64 // 9.5e-5
	GainNeg240 float64 // I(VDDC*, -240mV) / I(VDDC*, 0) — paper quotes 4.3×
	PaperGain  float64
}

// ReadCurrentFit fits the simulated 6T-HVT read current at VDDC = 550 mV
// over the VSSC sweep.
func ReadCurrentFit(vdd float64) (*ReadCurrentFitResult, error) {
	c := cell.New(device.HVT)
	rb := cell.NominalRead(vdd)
	rb.VDDC = 0.550
	vsscs := []float64{0, -0.04, -0.08, -0.12, -0.16, -0.20, -0.24}
	a, b, err := c.ReadCurrentFit(rb, vsscs, c.Lib.NHVT.Vt0)
	if err != nil {
		return nil, err
	}
	i0, err := c.ReadCurrent(rb)
	if err != nil {
		return nil, err
	}
	rbn := rb
	rbn.VSSC = -0.240
	i1, err := c.ReadCurrent(rbn)
	if err != nil {
		return nil, err
	}
	return &ReadCurrentFitResult{
		A: a, B: b,
		PaperA: 1.3, PaperB: 9.5e-5,
		GainNeg240: i1 / i0, PaperGain: 4.3,
	}, nil
}
