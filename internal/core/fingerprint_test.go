package core

import (
	"fmt"
	"math"
	"testing"

	"sramco/internal/device"
	"sramco/internal/periph"
)

// TestFingerprintCoversEveryInput: the fingerprint is the catalog's version
// key, so every model input it covers must move it. Each cell surface is
// moved by one ulp at one knot of the grid its LUT is built on (gridsAt,
// which characterizeCell and Fingerprint share) — every knot of the
// write-delay, read-current and RSNM grids of both flavors in turn — and
// each scalar by one ulp; every move must change the digest, while an
// unedited copy keeps it. Both modes run: in simulated mode all three
// surfaces are LUTs.
func TestFingerprintCoversEveryInput(t *testing.T) {
	for _, mode := range []Mode{TechPaper, TechSimulated} {
		t.Run(mode.String(), func(t *testing.T) {
			f := paperFramework
			if mode == TechSimulated {
				f = simFramework
			}
			checkFingerprintCoverage(t, f(t))
		})
	}
}

func checkFingerprintCoverage(t *testing.T, base *Framework) {
	want := base.Fingerprint()
	if got := withCell(base, device.HVT, func(*CellChar) {}).Fingerprint(); got != want {
		t.Fatal("an unedited copy changes the fingerprint")
	}
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	moved := func(name string, f *Framework) {
		t.Helper()
		if f.Fingerprint() == want {
			t.Errorf("%s does not change the fingerprint", name)
		}
	}

	grids := gridsAt(base.Vdd)
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		for _, vddc := range grids.rail {
			for _, vssc := range grids.vssc {
				moved(fmt.Sprintf("%v IRead at (%g, %g)", fl, vddc, vssc), withCell(base, fl, func(cc *CellChar) {
					iRead := cc.IRead
					cc.IRead = func(x, y float64) float64 {
						if x == vddc && y == vssc {
							return up(iRead(x, y))
						}
						return iRead(x, y)
					}
				}))
			}
		}
		for _, vwl := range grids.rail {
			moved(fmt.Sprintf("%v WriteDelayCell at %g", fl, vwl), withCell(base, fl, func(cc *CellChar) {
				wd := cc.WriteDelayCell
				cc.WriteDelayCell = func(x float64) float64 {
					if x == vwl {
						return up(wd(x))
					}
					return wd(x)
				}
			}))
		}
		for _, vssc := range grids.rsnm {
			moved(fmt.Sprintf("%v RSNMAt at %g", fl, vssc), withCell(base, fl, func(cc *CellChar) {
				rsnm := cc.RSNMAt
				cc.RSNMAt = func(x float64) float64 {
					if x == vssc {
						return up(rsnm(x))
					}
					return rsnm(x)
				}
			}))
		}
		for name, edit := range map[string]func(*CellChar){
			"VDDCStar":        func(cc *CellChar) { cc.VDDCStar = up(cc.VDDCStar) },
			"VWLStar":         func(cc *CellChar) { cc.VWLStar = up(cc.VWLStar) },
			"HSNM":            func(cc *CellChar) { cc.HSNM = up(cc.HSNM) },
			"LeakCell":        func(cc *CellChar) { cc.LeakCell = up(cc.LeakCell) },
			"WriteEnergyCell": func(cc *CellChar) { cc.WriteEnergyCell = up(cc.WriteEnergyCell) },
		} {
			moved(fmt.Sprintf("%v %s", fl, name), withCell(base, fl, edit))
		}
	}

	inPeriph := func(edit func(p *periph.Tech)) func(*Framework) {
		return func(f *Framework) {
			p := *f.Periph
			edit(&p)
			f.Periph = &p
		}
	}
	for name, edit := range map[string]func(*Framework){
		"Mode":            func(f *Framework) { f.Mode = 1 - f.Mode },
		"Accounting":      func(f *Framework) { f.Accounting = 1 - f.Accounting },
		"Vdd":             func(f *Framework) { f.Vdd = up(f.Vdd) },
		"DeltaVS":         func(f *Framework) { f.DeltaVS = up(f.DeltaVS) },
		"Delta":           func(f *Framework) { f.Delta = up(f.Delta) },
		"DCDC":            func(f *Framework) { f.DCDC = up(f.DCDC) },
		"Periph.Vdd":      inPeriph(func(p *periph.Tech) { p.Vdd = up(p.Vdd) }),
		"Periph.Tau":      inPeriph(func(p *periph.Tech) { p.Tau = up(p.Tau) }),
		"Periph.PInv":     inPeriph(func(p *periph.Tech) { p.PInv = up(p.PInv) }),
		"Periph.SADelay":  inPeriph(func(p *periph.Tech) { p.SADelay = up(p.SADelay) }),
		"Periph.SAEnergy": inPeriph(func(p *periph.Tech) { p.SAEnergy = up(p.SAEnergy) }),
		"Caps.Cdn":        func(f *Framework) { f.Caps.Cdn = up(f.Caps.Cdn) },
		"Caps.Cdp":        func(f *Framework) { f.Caps.Cdp = up(f.Caps.Cdp) },
		"Caps.Cgn":        func(f *Framework) { f.Caps.Cgn = up(f.Caps.Cgn) },
		"Caps.Cgp":        func(f *Framework) { f.Caps.Cgp = up(f.Caps.Cgp) },
	} {
		f := *base
		edit(&f)
		moved(name, &f)
	}
}
