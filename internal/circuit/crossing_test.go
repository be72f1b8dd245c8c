package circuit

import (
	"fmt"
	"math"
	"testing"

	"sramco/internal/device"
)

// crossCase is a recorded run whose nodes the watcher tests search.
type crossCase struct {
	name   string
	build  func() *Circuit
	opts   TranOpts
	nodes  []string
	levels []float64
}

func crossCases() []crossCase {
	lib := device.Default7nm()
	vdd := device.Vdd
	return []crossCase{
		{
			// An RC charge, plus a PWL source that sits exactly on 0.5 for
			// whole steps, twice: flat steps at the level cross nothing.
			name: "rc",
			build: func() *Circuit {
				c := New()
				c.AddV("vin", "in", Ground, Step(0, 1, 0, 1e-12))
				c.AddR("r", "in", "out", 1e3)
				c.AddC("c", "out", Ground, 1e-12)
				c.AddV("vp", "p", Ground, NewPWL(
					PWLPoint{T: 0, V: 0}, PWLPoint{T: 1e-9, V: 0.5}, PWLPoint{T: 2e-9, V: 0.5},
					PWLPoint{T: 3e-9, V: 1}, PWLPoint{T: 3.5e-9, V: 0.5}, PWLPoint{T: 4e-9, V: 0.5},
					PWLPoint{T: 4.5e-9, V: 0}))
				return c
			},
			opts:   TranOpts{TStop: 5e-9, DT: 5e-12},
			nodes:  []string{"out", "p"},
			levels: []float64{0.25, 0.5, 0.75},
		},
		{
			name: "inverter",
			build: func() *Circuit {
				c := New()
				c.AddV("vdd", "VDD", Ground, DC(vdd))
				c.AddV("vin", "in", Ground, NewPWL(
					PWLPoint{T: 0, V: 0}, PWLPoint{T: 10e-12, V: 0}, PWLPoint{T: 12e-12, V: vdd},
					PWLPoint{T: 100e-12, V: vdd}, PWLPoint{T: 102e-12, V: 0}))
				inverter(c, lib, device.LVT, "in", "out", "VDD")
				c.AddC("cl", "out", Ground, 1e-15)
				return c
			},
			opts:   TranOpts{TStop: 200e-12, DT: 0.5e-12},
			nodes:  []string{"in", "out"},
			levels: []float64{0.1 * vdd, vdd / 2, 0.9 * vdd},
		},
		{
			name: "ring",
			build: func() *Circuit {
				c := New()
				c.AddV("vdd", "VDD", Ground, DC(vdd))
				nodes := []string{"n1", "n2", "n3"}
				for i, out := range nodes {
					inverter(c, lib, device.LVT, nodes[(i+2)%3], out, "VDD")
					c.AddC("c"+out, out, Ground, 0.5e-15)
				}
				c.SetIC("n1", vdd)
				c.SetIC("n2", 0)
				c.SetIC("n3", vdd/2)
				return c
			},
			opts:   TranOpts{TStop: 0.5e-9, DT: 0.25e-12, UIC: true},
			nodes:  []string{"n1", "n3"},
			levels: []float64{vdd / 2},
		},
	}
}

// tMins returns search starts over a recorded run: time 0, step ends and
// points between steps spread over the run, and the end and the middle of
// the step holding the first crossing.
func tMins(res *TranResult, first int) []float64 {
	ts := res.Times
	out := []float64{0}
	for _, i := range []int{len(ts) / 3, 2 * len(ts) / 3, first} {
		if i > 0 && i < len(ts)-1 {
			out = append(out, ts[i], (ts[i]+ts[i+1])/2, (ts[i-1]+ts[i])/2)
		}
	}
	return out
}

// firstCrossStep returns the index of the recorded step holding the first
// crossing from time 0, or 0 when there is none.
func firstCrossStep(res *TranResult, node string, level float64, edge Edge) int {
	tc, err := res.CrossTime(node, level, edge, 0)
	if err != nil {
		return 0
	}
	for i, t := range res.Times {
		if t >= tc {
			return i
		}
	}
	return 0
}

func sameCross(t *testing.T, what string, w *Watcher, want float64, wantErr error) {
	t.Helper()
	switch {
	case w.Found != (wantErr == nil):
		t.Errorf("%s: watcher found=%v at %v, CrossTime err %v", what, w.Found, w.At, wantErr)
	case !w.Found && w.Err().Error() != wantErr.Error():
		t.Errorf("%s: watcher err %q, CrossTime err %q", what, w.Err(), wantErr)
	case w.Found && math.Float64bits(w.At) != math.Float64bits(want):
		t.Errorf("%s: watcher %v, CrossTime %v", what, w.At, want)
	}
}

// TestCrossingMatchesCrossTime checks that watchers fed by a TranRunner
// find the crossings CrossTime reads from the recorded run of the same
// netlist, bit for bit: every edge, several levels, search starts on step
// ends and between steps, flat steps sitting on the level, the difference
// of two nodes, a chain, and a start lowered during the run onto the end of
// the step that crossed.
func TestCrossingMatchesCrossTime(t *testing.T) {
	missed := 0
	for _, cc := range crossCases() {
		t.Run(cc.name, func(t *testing.T) {
			res, err := cc.build().Transient(cc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := cc.build().NewTranRunner()

			type watched struct {
				what    string
				w       *Watcher
				want    float64
				wantErr error
			}
			var ws []watched
			watch := func(res *TranResult, a, b string, level float64, edge Edge, tMin float64) {
				w := tr.Watch(a, b, level, edge)
				w.TMin = tMin
				node := a
				if b != Ground {
					node = a + "-" + b
				}
				want, wantErr := res.CrossTime(node, level, edge, tMin)
				ws = append(ws, watched{fmt.Sprintf("%s level %g edge %d tMin %g", node, level, edge, tMin), w, want, wantErr})
			}
			for _, node := range cc.nodes {
				for _, level := range cc.levels {
					for _, edge := range []Edge{EitherEdge, RisingEdge, FallingEdge} {
						for _, tMin := range tMins(res, firstCrossStep(res, node, level, edge)) {
							watch(res, node, Ground, level, edge, tMin)
						}
					}
				}
			}
			// The difference of the first two nodes, against CrossTime on
			// the recorded difference trace.
			a, b := cc.nodes[0], cc.nodes[1]
			diff := diffResult(res, a, b)
			for _, edge := range []Edge{EitherEdge, RisingEdge, FallingEdge} {
				for _, tMin := range tMins(diff, firstCrossStep(diff, a+"-"+b, 0, edge)) {
					watch(diff, a, b, 0, edge, tMin)
				}
			}

			// A chain of the first node's rising and falling crossings at
			// the middle level, alternating.
			level := cc.levels[len(cc.levels)/2]
			chain := []*Watcher{
				tr.Watch(a, Ground, level, RisingEdge), tr.Watch(b, Ground, level, EitherEdge),
				tr.Watch(a, Ground, level, FallingEdge), tr.Watch(a, Ground, level, RisingEdge),
			}
			fed := Chain(chain...)

			// A watcher whose start is lowered from +Inf, during the run,
			// onto the end of the step that holds the first crossing.
			lateStep := firstCrossStep(res, a, level, EitherEdge)
			late := tr.Watch(a, Ground, level, EitherEdge)
			late.TMin = math.Inf(1)

			err = tr.Run(cc.opts, func(tr *TranRunner) bool {
				for _, x := range ws {
					x.w.Observe(tr)
				}
				fed(tr)
				if tr.Steps() == int64(lateStep)+1 {
					late.TMin = res.Times[lateStep]
				}
				late.Observe(tr)
				return false
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) < 40 {
				t.Fatalf("only %d watchers", len(ws))
			}
			found := 0
			for _, x := range ws {
				sameCross(t, x.what, x.w, x.want, x.wantErr)
				if x.w.Found {
					found++
				}
			}
			if found < len(ws)/3 {
				t.Errorf("only %d of %d watchers found a crossing", found, len(ws))
			}
			missed += len(ws) - found

			tMin := 0.0
			for i, w := range chain {
				want, wantErr := res.CrossTime(w.name, w.level, w.edge, tMin)
				sameCross(t, fmt.Sprintf("chain link %d", i), w, want, wantErr)
				if wantErr != nil {
					break
				}
				tMin = want
			}
			if lateStep == 0 {
				t.Fatalf("%s never crosses %g", a, level)
			}
			want, wantErr := res.CrossTime(a, level, EitherEdge, res.Times[lateStep])
			sameCross(t, "lowered start", late, want, wantErr)
		})
	}
	if missed == 0 {
		t.Error("every watcher found a crossing: no search without one was checked")
	}
}

// diffResult returns a recorded result with one node, a-b, whose trace is
// node a's minus node b's.
func diffResult(res *TranResult, a, b string) *TranResult {
	va, vb := res.V(a), res.V(b)
	d := make([]float64, len(va))
	for i := range d {
		d[i] = va[i] - vb[i]
	}
	return &TranResult{Times: res.Times, names: map[string]int{a + "-" + b: 0}, volts: [][]float64{d}}
}
