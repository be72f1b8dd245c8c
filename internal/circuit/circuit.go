// Package circuit is a compact SPICE-like simulator used to characterize the
// SRAM cell and peripheral circuits: one Newton kernel — nodal analysis over
// the nodes no grounded voltage source pins, floating sources keeping their
// MNA branch, FET conductances from the device model's analytic partials —
// under a damped DC operating-point solver with gmin/source-stepping
// fallbacks, DC sweeps with continuation, and a backward-Euler transient
// engine.
//
// It supports exactly the elements this project needs — FinFETs (via
// internal/device compact models), resistors, capacitors, and independent
// voltage/current sources with time-dependent waveforms. Circuits here are
// tiny (a 6T cell has two free nodes), so the solver uses dense LU.
package circuit

import (
	"fmt"
	"math"

	"sramco/internal/device"
)

// Ground is the reserved name of the reference node.
const Ground = "0"

// Circuit is a netlist under construction. The zero value is not usable; use
// New.
type Circuit struct {
	nodeIndex map[string]int // name -> index; Ground -> 0
	nodeNames []string

	fets []*fet
	res  []*resistor
	caps []*capacitor
	vsrc []*vsource
	isrc []*isource

	ic map[string]float64 // initial conditions / Newton hints
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{
		nodeIndex: map[string]int{Ground: 0},
		nodeNames: []string{Ground},
		ic:        map[string]float64{},
	}
}

func (c *Circuit) node(name string) int {
	if name == "" {
		panic("circuit: empty node name")
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NumNodes returns the number of nodes including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// FET is a FinFET instance description.
type FET struct {
	Name  string
	Model *device.Model
	Fins  int     // width in fins (≥1)
	DVt   float64 // per-instance threshold shift (V), for Monte Carlo
	D     string  // drain node
	G     string  // gate node
	S     string  // source node
}

type fet struct {
	FET
	d, g, s int
}

// AddFET adds a FinFET. It panics on invalid fin counts or a nil model,
// which are programming errors in netlist construction.
func (c *Circuit) AddFET(f FET) {
	if f.Model == nil {
		panic(fmt.Sprintf("circuit: FET %q has nil model", f.Name))
	}
	if f.Fins < 1 {
		panic(fmt.Sprintf("circuit: FET %q has %d fins", f.Name, f.Fins))
	}
	c.fets = append(c.fets, &fet{FET: f, d: c.node(f.D), g: c.node(f.G), s: c.node(f.S)})
}

type resistor struct {
	name string
	a, b int
	g    float64
}

// AddR adds a resistor of r ohms between nodes a and b.
func (c *Circuit) AddR(name, a, b string, r float64) {
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		panic(fmt.Sprintf("circuit: resistor %q has invalid value %g", name, r))
	}
	c.res = append(c.res, &resistor{name: name, a: c.node(a), b: c.node(b), g: 1 / r})
}

type capacitor struct {
	name string
	a, b int
	cap  float64
}

// AddC adds a capacitor of f farads between nodes a and b. Capacitors are
// open circuits in DC and companion-modeled in transient analysis.
func (c *Circuit) AddC(name, a, b string, f float64) {
	if f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("circuit: capacitor %q has invalid value %g", name, f))
	}
	c.caps = append(c.caps, &capacitor{name: name, a: c.node(a), b: c.node(b), cap: f})
}

type vsource struct {
	name string
	a, b int // positive terminal a, negative terminal b
	wave Waveform
}

// AddV adds an independent voltage source; terminal a is positive.
func (c *Circuit) AddV(name, a, b string, w Waveform) {
	if w == nil {
		panic(fmt.Sprintf("circuit: source %q has nil waveform", name))
	}
	c.vsrc = append(c.vsrc, &vsource{name: name, a: c.node(a), b: c.node(b), wave: w})
}

// SetV replaces the waveform of an existing voltage source, allowing one
// netlist to be re-solved under different bias points.
func (c *Circuit) SetV(name string, w Waveform) {
	for _, v := range c.vsrc {
		if v.name == name {
			v.wave = w
			return
		}
	}
	panic(fmt.Sprintf("circuit: SetV: no voltage source %q", name))
}

// SetFETDVt replaces the per-instance threshold shift of an existing FET,
// allowing one netlist to be re-solved under different Monte Carlo
// perturbations without rebuilding it.
func (c *Circuit) SetFETDVt(name string, dvt float64) {
	for _, f := range c.fets {
		if f.Name == name {
			f.DVt = dvt
			return
		}
	}
	panic(fmt.Sprintf("circuit: SetFETDVt: no FET %q", name))
}

type isource struct {
	name string
	a, b int // current flows from a through the source to b
	wave Waveform
}

// AddI adds an independent current source pushing current from node a to
// node b through the source (i.e. it pulls node b up).
func (c *Circuit) AddI(name, a, b string, w Waveform) {
	if w == nil {
		panic(fmt.Sprintf("circuit: source %q has nil waveform", name))
	}
	c.isrc = append(c.isrc, &isource{name: name, a: c.node(a), b: c.node(b), wave: w})
}

// SetIC sets an initial condition for a node: the Newton initial guess in DC
// analysis (used to select a stable state of bistable circuits) and the
// t = 0 voltage in transient analysis.
func (c *Circuit) SetIC(node string, v float64) {
	c.node(node)
	c.ic[node] = v
}

// ClearICs removes all initial conditions.
func (c *Circuit) ClearICs() {
	for k := range c.ic {
		delete(c.ic, k)
	}
}
