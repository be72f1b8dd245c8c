package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
)

// greedyCase is one search of TestGreedyPinnedResults.
type greedyCase struct {
	name string
	f    *Framework
	opts Options
}

// greedyCases enumerates the pinned greedy searches on f: Table 4's
// capacities × both flavors × both methods × flat and divided wordlines ×
// the default and an 8-bit access width.
func greedyCases(mode string, f *Framework) []greedyCase {
	var cs []greedyCase
	for _, bytes := range []int{128, 256, 1024, 4096, 16384} {
		for _, fl := range []device.Flavor{device.LVT, device.HVT} {
			for _, m := range []Method{M1, M2} {
				for _, dwl := range []bool{false, true} {
					for _, w := range []int{0, 8} {
						cs = append(cs, greedyCase{
							name: fmt.Sprintf("%s/%dB/%v/%v/dwl=%v/W=%d", mode, bytes, fl, m, dwl, w),
							f:    f,
							opts: Options{CapacityBits: bytes * 8, Flavor: fl, Method: m, SearchWLSegs: dwl, W: w},
						})
					}
				}
			}
		}
	}
	return cs
}

// greedyPin formats what a greedy search returned: the optimum's design
// and evaluation, or the error, and every deterministic count.
func greedyPin(opt *Optimum, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	d, r, s := opt.Best.Design, opt.Best.Result, opt.Stats
	return fmt.Sprintf("%dx%d W=%d segs=%d mux=%d Npre=%d Nwr=%d VDDC=%v VSSC=%v VWL=%v D=%v E=%v EDP=%v | "+
		"evaluated=%d skipped=%d rsnm=%d geom=%d rails=%d vssc=%d bound=%d chunks=%d",
		d.Geom.NR, d.Geom.NC, d.Geom.W, d.Geom.WLSegs, d.Geom.Mux, d.Geom.Npre, d.Geom.Nwr, d.VDDC, d.VSSC, d.VWL,
		r.DArray, r.EArray, r.EDP,
		opt.Evaluated, opt.Skipped, s.SkippedRSNM, s.SkippedGeom, s.SkippedRails, s.PrunedVSSC, s.PrunedBound, s.Chunks)
}

// TestGreedyPinnedResults pins GreedyOptimize's optimum and every
// deterministic SearchStats count (all but Wall and Workers) on the
// default space in paper and simulated mode, and on spaces whose
// coordinate descent starts outside the grid or meets read-unstable VSSC
// levels. The table was recorded before the greedy searcher moved onto the
// shared point evaluator, which must evaluate the same points in the same
// order.
func TestGreedyPinnedResults(t *testing.T) {
	check := func(t *testing.T, cs []greedyCase) {
		for _, c := range cs {
			want, ok := greedyPins[c.name]
			if !ok {
				t.Errorf("%s: no pinned result", c.name)
				continue
			}
			if got := greedyPin(c.f.GreedyOptimize(context.Background(), c.opts)); got != want {
				t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
			}
		}
	}
	t.Run("paper", func(t *testing.T) {
		f := paperFramework(t)
		cs := greedyCases("paper", f)
		space := DefaultSpace()
		space.NCMax = 128 // the square-ish start, 512×256, lies outside the space
		cs = append(cs,
			greedyCase{"paper/16384B/HVT/M2/NCMax=128", f, Options{CapacityBits: 16384 * 8, Flavor: device.HVT, Method: M2, Space: space}},
			greedyCase{"paper/4096B/HVT/M2/rsnm<-0.05", pruningFramework(t, -0.05), Options{CapacityBits: 4096 * 8, Flavor: device.HVT, Method: M2}},
			greedyCase{"paper/4096B/HVT/M2/rsnm<1", pruningFramework(t, 1), Options{CapacityBits: 4096 * 8, Flavor: device.HVT, Method: M2}},
		)
		check(t, cs)
	})
	t.Run("simulated", func(t *testing.T) {
		check(t, greedyCases("simulated", simFramework(t)))
	})
}

// greedyPins holds each greedyCase's greedyPin.
var greedyPins = map[string]string{
	"paper/128B/LVT/M1/dwl=false/W=0":       "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.64 D=5.25267073870774e-11 E=1.6162838114325095e-15 EDP=8.489806681758562e-26 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M1/dwl=false/W=8":       "32x32 W=8 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=5.3606448663558285e-11 E=2.52523157980607e-15 EDP=1.3536869704647028e-25 | evaluated=325 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M1/dwl=true/W=0":        "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.64 D=5.25267073870774e-11 E=1.6162838114325095e-15 EDP=8.489806681758562e-26 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M1/dwl=true/W=8":        "16x64 W=8 segs=8 mux=0 Npre=7 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.64 D=6.356686603720149e-11 E=2.6449169446309832e-15 EDP=1.6812908109888198e-25 | evaluated=165 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M2/dwl=false/W=0":       "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.64 VSSC=-0.05 VWL=0.49 D=5.1632219067212304e-11 E=1.5449320238136047e-15 EDP=7.97682686974957e-26 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M2/dwl=false/W=8":       "32x32 W=8 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.49 D=5.440586246293821e-11 E=2.4319141505501857e-15 EDP=1.323103867965066e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M2/dwl=true/W=0":        "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.64 VSSC=-0.05 VWL=0.49 D=5.1632219067212304e-11 E=1.5449320238136047e-15 EDP=7.97682686974957e-26 | evaluated=425 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/LVT/M2/dwl=true/W=8":        "32x32 W=8 segs=4 mux=0 Npre=11 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.49 D=6.577616046784946e-11 E=2.3040918573358795e-15 EDP=1.5155431574079012e-25 | evaluated=424 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M1/dwl=false/W=0":       "32x32 W=32 segs=1 mux=0 Npre=7 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=5.875166084080094e-11 E=1.4233164594574803e-15 EDP=8.362220589517548e-26 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M1/dwl=false/W=8":       "32x32 W=8 segs=1 mux=0 Npre=8 Nwr=2 VDDC=0.55 VSSC=0 VWL=0.55 D=5.976506259073553e-11 E=2.316759552775619e-15 EDP=1.384612796793193e-25 | evaluated=325 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M1/dwl=true/W=0":        "32x32 W=32 segs=1 mux=0 Npre=7 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=5.875166084080094e-11 E=1.4233164594574803e-15 EDP=8.362220589517548e-26 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M1/dwl=true/W=8":        "16x64 W=8 segs=8 mux=0 Npre=6 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=6.713401091068609e-11 E=2.448680321128148e-15 EDP=1.6438973139539941e-25 | evaluated=165 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M2/dwl=false/W=0":       "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.55 VSSC=-0.2 VWL=0.54 D=5.1347158285569123e-11 E=1.521233258186923e-15 EDP=7.811100489739597e-26 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M2/dwl=false/W=8":       "32x32 W=8 segs=1 mux=0 Npre=11 Nwr=2 VDDC=0.55 VSSC=-0.07 VWL=0.54 D=5.5501650162146695e-11 E=2.353117776560815e-15 EDP=1.3060191962500682e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M2/dwl=true/W=0":        "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.55 VSSC=-0.2 VWL=0.54 D=5.1347158285569123e-11 E=1.521233258186923e-15 EDP=7.811100489739597e-26 | evaluated=425 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/128B/HVT/M2/dwl=true/W=8":        "32x32 W=8 segs=1 mux=0 Npre=11 Nwr=2 VDDC=0.55 VSSC=-0.07 VWL=0.54 D=5.5501650162146695e-11 E=2.353117776560815e-15 EDP=1.3060191962500682e-25 | evaluated=537 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M1/dwl=false/W=0":       "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=6.043273047690808e-11 E=2.1119604505722693e-15 EDP=1.2763153668732329e-25 | evaluated=325 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M1/dwl=false/W=8":       "64x32 W=8 segs=1 mux=0 Npre=23 Nwr=3 VDDC=0.64 VSSC=0 VWL=0.64 D=6.124203446998633e-11 E=3.1513158637179476e-15 EDP=1.929929947516293e-25 | evaluated=325 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M1/dwl=true/W=0":        "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=6.043273047690808e-11 E=2.1119604505722693e-15 EDP=1.2763153668732329e-25 | evaluated=329 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M1/dwl=true/W=8":        "32x64 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.64 D=7.039104701908575e-11 E=3.028791550387288e-15 EDP=2.131998084343212e-25 | evaluated=166 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M2/dwl=false/W=0":       "64x32 W=32 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=5.4701300114451614e-11 E=2.1314062023773995e-15 EDP=1.1659069034204973e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M2/dwl=false/W=8":       "64x32 W=8 segs=1 mux=0 Npre=24 Nwr=3 VDDC=0.64 VSSC=0 VWL=0.49 D=6.197738428809707e-11 E=3.061840509673262e-15 EDP=1.8976486589688276e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M2/dwl=true/W=0":        "64x32 W=32 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=5.4701300114451614e-11 E=2.1314062023773995e-15 EDP=1.1659069034204973e-25 | evaluated=425 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/LVT/M2/dwl=true/W=8":        "32x64 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.49 D=7.039104701908575e-11 E=3.004061237887288e-15 EDP=2.1145901584433703e-25 | evaluated=214 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M1/dwl=false/W=0":       "64x32 W=32 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=7.176078845391322e-11 E=1.7965166197697963e-15 EDP=1.2891944910523961e-25 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M1/dwl=false/W=8":       "32x64 W=8 segs=1 mux=0 Npre=11 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=7.063960311321175e-11 E=2.9885788823884207e-15 EDP=2.11112026124444e-25 | evaluated=163 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M1/dwl=true/W=0":        "64x32 W=32 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=7.176078845391322e-11 E=1.7965166197697963e-15 EDP=1.2891944910523961e-25 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M1/dwl=true/W=8":        "32x64 W=8 segs=8 mux=0 Npre=7 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=7.677821769779358e-11 E=2.6991203392672964e-15 EDP=2.0723364900080695e-25 | evaluated=166 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M2/dwl=false/W=0":       "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.55 VSSC=-0.07 VWL=0.54 D=6.437830773258557e-11 E=1.8341935134873794e-15 EDP=1.1808227445240286e-25 | evaluated=526 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M2/dwl=false/W=8":       "32x64 W=8 segs=1 mux=0 Npre=11 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=7.076725063891615e-11 E=2.977492069003297e-15 EDP=2.1070892752254135e-25 | evaluated=211 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M2/dwl=true/W=0":        "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.55 VSSC=-0.07 VWL=0.54 D=6.437830773258557e-11 E=1.8341935134873794e-15 EDP=1.1808227445240286e-25 | evaluated=531 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/256B/HVT/M2/dwl=true/W=8":        "32x64 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.55 VSSC=-0.12 VWL=0.54 D=7.096785513525107e-11 E=2.8056131067199933e-15 EDP=1.991083445232662e-25 | evaluated=422 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M1/dwl=false/W=0":      "128x64 W=64 segs=1 mux=0 Npre=20 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=8.729626772278166e-11 E=4.854824766613066e-15 EDP=4.238080825734452e-25 | evaluated=317 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M1/dwl=false/W=8":      "64x128 W=8 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=9.481414381321959e-11 E=6.5453506886714774e-15 EDP=6.2059182150365335e-25 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M1/dwl=true/W=0":       "128x64 W=64 segs=1 mux=0 Npre=20 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=8.729626772278166e-11 E=4.854824766613066e-15 EDP=4.238080825734452e-25 | evaluated=323 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M1/dwl=true/W=8":       "64x128 W=8 segs=8 mux=0 Npre=15 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=9.588994782476899e-11 E=5.622505011766218e-15 EDP=5.391417122227647e-25 | evaluated=164 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M2/dwl=false/W=0":      "128x64 W=64 segs=1 mux=0 Npre=25 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=7.642920503822514e-11 E=4.779686930662953e-15 EDP=3.6530767244216382e-25 | evaluated=413 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M2/dwl=false/W=8":      "64x128 W=8 segs=1 mux=0 Npre=17 Nwr=2 VDDC=0.64 VSSC=-0.07 VWL=0.49 D=9.239284024846779e-11 E=6.316754007257739e-15 EDP=5.83622843881433e-25 | evaluated=516 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M2/dwl=true/W=0":       "128x64 W=64 segs=1 mux=0 Npre=25 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=7.642920503822514e-11 E=4.779686930662953e-15 EDP=3.6530767244216382e-25 | evaluated=418 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/LVT/M2/dwl=true/W=8":       "64x128 W=8 segs=8 mux=0 Npre=17 Nwr=2 VDDC=0.64 VSSC=-0.15 VWL=0.49 D=9.154488774903674e-11 E=5.760796659984665e-15 EDP=5.273714835833219e-25 | evaluated=420 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M1/dwl=false/W=0":      "128x64 W=64 segs=1 mux=0 Npre=14 Nwr=2 VDDC=0.55 VSSC=0 VWL=0.55 D=1.0959235148434958e-10 E=3.5172176545555033e-15 EDP=3.854601534450064e-25 | evaluated=238 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M1/dwl=false/W=8":      "64x128 W=8 segs=1 mux=0 Npre=12 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=1.0601881105246356e-10 E=4.842893150211627e-15 EDP=5.134377738395565e-25 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M1/dwl=true/W=0":       "128x64 W=64 segs=1 mux=0 Npre=14 Nwr=2 VDDC=0.55 VSSC=0 VWL=0.55 D=1.0959235148434958e-10 E=3.5172176545555033e-15 EDP=3.854601534450064e-25 | evaluated=241 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M1/dwl=true/W=8":       "64x128 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=1.07185640799314e-10 E=4.061323086093094e-15 EDP=4.353155174759358e-25 | evaluated=164 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M2/dwl=false/W=0":      "128x64 W=64 segs=1 mux=0 Npre=21 Nwr=2 VDDC=0.55 VSSC=-0.24 VWL=0.54 D=8.075441600749023e-11 E=3.7332544864265355e-15 EDP=3.0147678585871776e-25 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M2/dwl=false/W=8":      "64x128 W=8 segs=1 mux=0 Npre=12 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=1.0601881105246356e-10 E=4.822195400211627e-15 EDP=5.112434229930954e-25 | evaluated=207 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M2/dwl=true/W=0":       "128x64 W=64 segs=1 mux=0 Npre=21 Nwr=2 VDDC=0.55 VSSC=-0.24 VWL=0.54 D=8.075441600749023e-11 E=3.7332544864265355e-15 EDP=3.0147678585871776e-25 | evaluated=313 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/1024B/HVT/M2/dwl=true/W=8":       "64x128 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=1.07185640799314e-10 E=4.058475711093094e-15 EDP=4.350103197619648e-25 | evaluated=212 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M1/dwl=false/W=0":      "128x256 W=64 segs=1 mux=0 Npre=31 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=1.5959083392626198e-10 E=1.9508786950794013e-14 EDP=3.1134235783669943e-24 | evaluated=309 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M1/dwl=false/W=8":      "256x128 W=8 segs=1 mux=0 Npre=31 Nwr=3 VDDC=0.64 VSSC=0 VWL=0.64 D=1.3536497683575105e-10 E=1.596155478113398e-14 EDP=2.1606354932107727e-24 | evaluated=386 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M1/dwl=true/W=0":       "64x512 W=64 segs=8 mux=0 Npre=16 Nwr=1 VDDC=0.64 VSSC=0 VWL=0.64 D=1.9987199846166504e-10 E=2.1973885338341396e-14 EDP=4.391964376541776e-24 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M1/dwl=true/W=8":       "128x256 W=8 segs=8 mux=0 Npre=22 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=1.4621508498428754e-10 E=1.6173395952862604e-14 EDP=2.3647944637323377e-24 | evaluated=242 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M2/dwl=false/W=0":      "128x256 W=64 segs=1 mux=0 Npre=31 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.49 D=1.603902477256419e-10 E=1.8954957964605724e-14 EDP=3.040190403572241e-24 | evaluated=304 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M2/dwl=false/W=8":      "256x128 W=8 segs=1 mux=0 Npre=44 Nwr=3 VDDC=0.64 VSSC=-0.06 VWL=0.49 D=1.2791133064416861e-10 E=1.5380088522471416e-14 EDP=1.967287588334424e-24 | evaluated=405 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M2/dwl=true/W=0":       "128x256 W=64 segs=1 mux=0 Npre=31 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.49 D=1.603902477256419e-10 E=1.8954957964605724e-14 EDP=3.040190403572241e-24 | evaluated=414 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/LVT/M2/dwl=true/W=8":       "128x256 W=8 segs=8 mux=0 Npre=28 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=1.3519507667131681e-10 E=1.622543714884278e-14 EDP=2.1935992193634315e-24 | evaluated=314 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M1/dwl=false/W=0":      "128x256 W=64 segs=1 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=1.8949731922803506e-10 E=9.594581898830069e-15 EDP=1.8181475489421284e-24 | evaluated=155 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M1/dwl=false/W=8":      "128x256 W=8 segs=1 mux=0 Npre=15 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=1.7759327492436389e-10 E=9.853984517483168e-15 EDP=1.7500013815138136e-24 | evaluated=155 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M1/dwl=true/W=0":       "128x256 W=64 segs=4 mux=0 Npre=15 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=2.045050405546033e-10 E=8.220359285849246e-15 EDP=1.68110490912601e-24 | evaluated=158 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M1/dwl=true/W=8":       "128x256 W=8 segs=8 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=1.7070032406252417e-10 E=8.079880573948227e-15 EDP=1.379238232359456e-24 | evaluated=162 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/dwl=false/W=0":      "128x256 W=64 segs=1 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=1.8962496675373948e-10 E=9.555048134668098e-15 EDP=1.8118756848668184e-24 | evaluated=203 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/dwl=false/W=8":      "128x256 W=8 segs=1 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=-0.03 VWL=0.54 D=1.708279715882286e-10 E=9.902184783786253e-15 EDP=1.6915701409060277e-24 | evaluated=405 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/dwl=true/W=0":       "128x256 W=64 segs=4 mux=0 Npre=17 Nwr=1 VDDC=0.55 VSSC=-0.07 VWL=0.54 D=1.9052673016365983e-10 E=8.389021257308229e-15 EDP=1.5983327894283713e-24 | evaluated=307 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/dwl=true/W=8":       "128x256 W=8 segs=8 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=1.708279715882286e-10 E=8.074978809786254e-15 EDP=1.379432250693714e-24 | evaluated=210 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M1/dwl=false/W=0":     "256x512 W=64 segs=1 mux=0 Npre=33 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=2.7148324905940815e-10 E=7.949550393984936e-14 EDP=2.1581697695205286e-23 | evaluated=301 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M1/dwl=false/W=8":     "256x512 W=8 segs=1 mux=0 Npre=33 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=2.7148324905940815e-10 E=7.913641743984935e-14 EDP=2.148421172549191e-23 | evaluated=301 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M1/dwl=true/W=0":      "256x512 W=64 segs=8 mux=0 Npre=33 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=2.4045592415981865e-10 E=6.824090769837696e-14 EDP=1.6408930526118114e-23 | evaluated=311 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M1/dwl=true/W=8":      "256x512 W=8 segs=8 mux=0 Npre=33 Nwr=2 VDDC=0.64 VSSC=0 VWL=0.64 D=2.4045592415981865e-10 E=6.788182119837696e-14 EDP=1.6322586049907302e-23 | evaluated=317 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M2/dwl=false/W=0":     "256x512 W=64 segs=1 mux=0 Npre=49 Nwr=2 VDDC=0.64 VSSC=-0.03 VWL=0.49 D=2.6782830157695446e-10 E=7.773201845814642e-14 EDP=2.081883448179383e-23 | evaluated=595 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M2/dwl=false/W=8":     "256x512 W=8 segs=1 mux=0 Npre=49 Nwr=2 VDDC=0.64 VSSC=-0.03 VWL=0.49 D=2.6782830157695446e-10 E=7.737293195814643e-14 EDP=2.0722660954379618e-23 | evaluated=595 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M2/dwl=true/W=0":      "256x512 W=64 segs=8 mux=0 Npre=36 Nwr=2 VDDC=0.64 VSSC=-0.02 VWL=0.49 D=2.37728439879224e-10 E=6.76118072115696e-14 EDP=1.607324944582131e-23 | evaluated=306 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/LVT/M2/dwl=true/W=8":      "256x512 W=8 segs=8 mux=0 Npre=43 Nwr=2 VDDC=0.64 VSSC=-0.24 VWL=0.49 D=2.1947753863472938e-10 E=6.452664550313167e-14 EDP=1.4162149331383067e-23 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M1/dwl=false/W=0":     "256x512 W=64 segs=1 mux=0 Npre=30 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=3.1451816615356324e-10 E=2.050598260607455e-14 EDP=6.449504044439433e-24 | evaluated=151 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M1/dwl=false/W=8":     "256x512 W=8 segs=1 mux=0 Npre=22 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.55 D=3.138768168998479e-10 E=2.0912802945865143e-14 EDP=6.564044021101913e-24 | evaluated=151 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M1/dwl=true/W=0":      "256x512 W=64 segs=8 mux=0 Npre=22 Nwr=2 VDDC=0.55 VSSC=0 VWL=0.55 D=2.836385627961258e-10 E=1.731100109363073e-14 EDP=4.910067470759583e-24 | evaluated=234 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M1/dwl=true/W=8":      "256x512 W=8 segs=8 mux=0 Npre=22 Nwr=2 VDDC=0.55 VSSC=0 VWL=0.55 D=2.836385627961258e-10 E=1.6951914593630733e-14 EDP=4.8082166919800924e-24 | evaluated=238 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M2/dwl=false/W=0":     "256x512 W=64 segs=1 mux=0 Npre=30 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=3.1464581367926767e-10 E=2.0429119799426658e-14 EDP=6.427937022041838e-24 | evaluated=199 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M2/dwl=false/W=8":     "256x512 W=8 segs=1 mux=0 Npre=26 Nwr=1 VDDC=0.55 VSSC=-0.04 VWL=0.54 D=2.963101232016066e-10 E=2.089260632239904e-14 EDP=6.190690753392724e-24 | evaluated=298 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M2/dwl=true/W=0":      "256x512 W=64 segs=8 mux=0 Npre=31 Nwr=2 VDDC=0.55 VSSC=-0.15 VWL=0.54 D=2.390975300394531e-10 E=1.773296108950116e-14 EDP=4.239907196785457e-24 | evaluated=306 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M2/dwl=true/W=8":      "256x512 W=8 segs=8 mux=0 Npre=33 Nwr=2 VDDC=0.55 VSSC=-0.24 VWL=0.54 D=2.2775381171048192e-10 E=1.7789749737898333e-14 EDP=4.051683312181892e-24 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/16384B/HVT/M2/NCMax=128":         "1024x128 W=64 segs=1 mux=0 Npre=50 Nwr=3 VDDC=0.55 VSSC=-0.03 VWL=0.54 D=3.9482182359167315e-10 E=2.988853534906824e-14 EDP=1.1800646031003309e-23 | evaluated=288 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/rsnm<-0.05":         "128x256 W=64 segs=1 mux=0 Npre=21 Nwr=1 VDDC=0.55 VSSC=0 VWL=0.54 D=1.8962496675373948e-10 E=9.555048134668098e-15 EDP=1.8118756848668184e-24 | evaluated=165 skipped=38 rsnm=38 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"paper/4096B/HVT/M2/rsnm<1":             "error: core: greedy search: no feasible design for 32768 bits",
	"simulated/128B/LVT/M1/dwl=false/W=0":   "32x32 W=32 segs=1 mux=0 Npre=7 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=5.913253291677233e-11 E=1.4816213386404499e-15 EDP=8.761202257734869e-26 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M1/dwl=false/W=8":   "32x32 W=8 segs=1 mux=0 Npre=8 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=6.018035496517404e-11 E=2.376591637854779e-15 EDP=1.4302412837336496e-25 | evaluated=325 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M1/dwl=true/W=0":    "32x32 W=32 segs=1 mux=0 Npre=7 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=5.913253291677233e-11 E=1.4816213386404499e-15 EDP=8.761202257734869e-26 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M1/dwl=true/W=8":    "32x32 W=8 segs=1 mux=0 Npre=8 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=6.018035496517404e-11 E=2.376591637854779e-15 EDP=1.4302412837336496e-25 | evaluated=417 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M2/dwl=false/W=0":   "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.52 VSSC=-0.23 VWL=0.49 D=5.1249271637150346e-11 E=1.5694945593097725e-15 EDP=8.04354530030961e-26 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M2/dwl=false/W=8":   "32x32 W=8 segs=1 mux=0 Npre=12 Nwr=2 VDDC=0.52 VSSC=-0.1 VWL=0.49 D=5.480119421416285e-11 E=2.4095287288656383e-15 EDP=1.3204505183517078e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M2/dwl=true/W=0":    "32x32 W=32 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.52 VSSC=-0.23 VWL=0.49 D=5.1249271637150346e-11 E=1.5694945593097725e-15 EDP=8.04354530030961e-26 | evaluated=425 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/LVT/M2/dwl=true/W=8":    "32x32 W=8 segs=1 mux=0 Npre=12 Nwr=2 VDDC=0.52 VSSC=-0.1 VWL=0.49 D=5.480119421416285e-11 E=2.4095287288656383e-15 EDP=1.3204505183517078e-25 | evaluated=537 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M1/dwl=false/W=0":   "32x32 W=32 segs=1 mux=0 Npre=5 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.229225010886749e-11 E=1.3852581945757669e-15 EDP=1.0014343186762956e-25 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M1/dwl=false/W=8":   "32x32 W=8 segs=1 mux=0 Npre=6 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.263607209277588e-11 E=2.1547084157347842e-15 EDP=1.565095558242227e-25 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M1/dwl=true/W=0":    "32x32 W=32 segs=1 mux=0 Npre=5 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.229225010886749e-11 E=1.3852581945757669e-15 EDP=1.0014343186762956e-25 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M1/dwl=true/W=8":    "16x64 W=8 segs=8 mux=0 Npre=4 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.488025839278486e-11 E=2.4142893481818596e-15 EDP=1.807826102268058e-25 | evaluated=165 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M2/dwl=false/W=0":   "32x32 W=32 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.45 VSSC=-0.24 VWL=0.52 D=5.4264431794438724e-11 E=1.476159192109785e-15 EDP=8.01029397979752e-26 | evaluated=316 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M2/dwl=false/W=8":   "32x32 W=8 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.45 VSSC=-0.05 VWL=0.52 D=6.687373540119842e-11 E=2.1520842349395296e-15 EDP=1.4391791168843663e-25 | evaluated=526 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M2/dwl=true/W=0":    "32x32 W=32 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.45 VSSC=-0.24 VWL=0.52 D=5.4264431794438724e-11 E=1.476159192109785e-15 EDP=8.01029397979752e-26 | evaluated=319 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/128B/HVT/M2/dwl=true/W=8":    "32x32 W=8 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.45 VSSC=-0.05 VWL=0.52 D=6.687373540119842e-11 E=2.1520842349395296e-15 EDP=1.4391791168843663e-25 | evaluated=537 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M1/dwl=false/W=0":   "64x32 W=32 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.247663887456652e-11 E=1.9875517509212284e-15 EDP=1.4405107049603026e-25 | evaluated=244 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M1/dwl=false/W=8":   "32x64 W=8 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.067143587384431e-11 E=3.142296344117725e-15 EDP=2.2207059457993122e-25 | evaluated=163 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M1/dwl=true/W=0":    "64x32 W=32 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.247663887456652e-11 E=1.9875517509212284e-15 EDP=1.4405107049603026e-25 | evaluated=247 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M1/dwl=true/W=8":    "32x64 W=8 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=7.067143587384431e-11 E=3.142296344117725e-15 EDP=2.2207059457993122e-25 | evaluated=251 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M2/dwl=false/W=0":   "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.52 VSSC=-0.09 VWL=0.49 D=6.385262850745541e-11 E=1.9961427837994196e-15 EDP=1.2745896362178222e-25 | evaluated=526 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M2/dwl=false/W=8":   "32x64 W=8 segs=1 mux=0 Npre=9 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.49 D=7.06619589299475e-11 E=3.111547475896525e-15 EDP=2.1986803995038207e-25 | evaluated=211 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M2/dwl=true/W=0":    "64x32 W=32 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.52 VSSC=-0.09 VWL=0.49 D=6.385262850745541e-11 E=1.9961427837994196e-15 EDP=1.2745896362178222e-25 | evaluated=531 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/LVT/M2/dwl=true/W=8":    "32x64 W=8 segs=8 mux=0 Npre=10 Nwr=1 VDDC=0.52 VSSC=-0.16 VWL=0.49 D=7.039279882135367e-11 E=3.0250282389829284e-15 EDP=2.1294020425563906e-25 | evaluated=526 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M1/dwl=false/W=0":   "32x64 W=64 segs=1 mux=0 Npre=5 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=8.367180788942653e-11 E=1.8391113299437094e-15 EDP=1.5388176988631778e-25 | evaluated=163 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M1/dwl=false/W=8":   "32x64 W=8 segs=1 mux=0 Npre=6 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=8.401562987333491e-11 E=2.9188197722617447e-15 EDP=2.4522648165331447e-25 | evaluated=163 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M1/dwl=true/W=0":    "32x64 W=64 segs=1 mux=0 Npre=5 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=8.367180788942653e-11 E=1.8391113299437094e-15 EDP=1.5388176988631778e-25 | evaluated=165 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M1/dwl=true/W=8":    "32x64 W=8 segs=8 mux=0 Npre=6 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=9.044195537007413e-11 E=2.668263977222344e-15 EDP=2.413230115435197e-25 | evaluated=166 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M2/dwl=false/W=0":   "64x32 W=32 segs=1 mux=0 Npre=14 Nwr=1 VDDC=0.45 VSSC=-0.22 VWL=0.52 D=6.45245623795688e-11 E=1.850726794211659e-15 EDP=1.194173364806496e-25 | evaluated=631 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M2/dwl=false/W=8":   "32x64 W=8 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.45 VSSC=-0.11 VWL=0.52 D=7.189243838234191e-11 E=2.9557430194757392e-15 EDP=2.124955729016968e-25 | evaluated=421 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M2/dwl=true/W=0":    "64x32 W=32 segs=1 mux=0 Npre=14 Nwr=1 VDDC=0.45 VSSC=-0.22 VWL=0.52 D=6.45245623795688e-11 E=1.850726794211659e-15 EDP=1.194173364806496e-25 | evaluated=637 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/256B/HVT/M2/dwl=true/W=8":    "32x64 W=8 segs=8 mux=0 Npre=9 Nwr=1 VDDC=0.45 VSSC=-0.24 VWL=0.52 D=7.214034911098108e-11 E=2.816405042862309e-15 EDP=2.0317644303001458e-25 | evaluated=422 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M1/dwl=false/W=0":  "128x64 W=64 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=1.1090983704709665e-10 E=4.841211617008397e-15 EDP=5.369379915529125e-25 | evaluated=317 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M1/dwl=false/W=8":  "64x128 W=8 segs=1 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.0677056978974632e-10 E=6.062318411967595e-15 EDP=6.472771910926501e-25 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M1/dwl=true/W=0":   "128x64 W=64 segs=1 mux=0 Npre=15 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=1.1090983704709665e-10 E=4.841211617008397e-15 EDP=5.369379915529125e-25 | evaluated=322 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M1/dwl=true/W=8":   "64x128 W=8 segs=8 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.0784637380129572e-10 E=5.3528955787691244e-15 EDP=5.7729037750723815e-25 | evaluated=164 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M2/dwl=false/W=0":  "128x64 W=64 segs=1 mux=0 Npre=22 Nwr=2 VDDC=0.52 VSSC=-0.24 VWL=0.49 D=8.2041450022339e-11 E=4.675256028024415e-15 EDP=3.835647837648042e-25 | evaluated=413 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M2/dwl=false/W=8":  "64x128 W=8 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.52 VSSC=-0.01 VWL=0.49 D=1.0541309586808498e-10 E=6.003286416209643e-15 EDP=6.328250065154794e-25 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M2/dwl=true/W=0":   "128x64 W=64 segs=1 mux=0 Npre=22 Nwr=2 VDDC=0.52 VSSC=-0.24 VWL=0.49 D=8.2041450022339e-11 E=4.675256028024415e-15 EDP=3.835647837648042e-25 | evaluated=418 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/LVT/M2/dwl=true/W=8":   "64x128 W=8 segs=8 mux=0 Npre=13 Nwr=1 VDDC=0.52 VSSC=-0.02 VWL=0.49 D=1.0527662474660071e-10 E=5.347169044566512e-15 EDP=5.629319089614681e-25 | evaluated=316 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M1/dwl=false/W=0":  "128x64 W=64 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.579046651512056e-10 E=3.469928615976428e-15 EDP=5.479179162043442e-25 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M1/dwl=false/W=8":  "64x128 W=8 segs=1 mux=0 Npre=8 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.3161117045148858e-10 E=4.7385642143145196e-15 EDP=6.236479825054724e-25 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M1/dwl=true/W=0":   "128x64 W=64 segs=1 mux=0 Npre=10 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.579046651512056e-10 E=3.469928615976428e-15 EDP=5.479179162043442e-25 | evaluated=161 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M1/dwl=true/W=8":   "64x128 W=8 segs=8 mux=0 Npre=8 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.3268697446303798e-10 E=4.015717886533057e-15 EDP=5.328334566611766e-25 | evaluated=164 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M2/dwl=false/W=0":  "128x64 W=64 segs=1 mux=0 Npre=14 Nwr=1 VDDC=0.45 VSSC=-0.1 VWL=0.52 D=1.17623508510871e-10 E=3.4822618864237965e-15 EDP=4.095958606348511e-25 | evaluated=413 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M2/dwl=false/W=8":  "64x128 W=8 segs=1 mux=0 Npre=12 Nwr=1 VDDC=0.45 VSSC=-0.13 VWL=0.52 D=1.0648400422218529e-10 E=4.826516789379613e-15 EDP=5.139468341787469e-25 | evaluated=413 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M2/dwl=true/W=0":   "128x64 W=64 segs=1 mux=0 Npre=14 Nwr=1 VDDC=0.45 VSSC=-0.1 VWL=0.52 D=1.17623508510871e-10 E=3.4822618864237965e-15 EDP=4.095958606348511e-25 | evaluated=417 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/1024B/HVT/M2/dwl=true/W=8":   "64x128 W=8 segs=8 mux=0 Npre=12 Nwr=1 VDDC=0.45 VSSC=-0.14 VWL=0.52 D=1.0639903664409465e-10 E=4.1185789497737375e-15 EDP=4.382128325985727e-25 | evaluated=420 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M1/dwl=false/W=0":  "128x256 W=64 segs=1 mux=0 Npre=16 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=1.797727139189854e-10 E=1.9224609122350625e-14 EDP=3.456060155956656e-24 | evaluated=232 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M1/dwl=false/W=8":  "128x256 W=8 segs=1 mux=0 Npre=16 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.7894431214096397e-10 E=1.8570597761208557e-14 EDP=3.323102842425991e-24 | evaluated=155 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M1/dwl=true/W=0":   "128x256 W=64 segs=1 mux=0 Npre=16 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=1.797727139189854e-10 E=1.9224609122350625e-14 EDP=3.456060155956656e-24 | evaluated=318 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M1/dwl=true/W=8":   "128x256 W=8 segs=8 mux=0 Npre=22 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=1.7001403810694808e-10 E=1.6449631943761855e-14 EDP=2.7966683521319984e-24 | evaluated=162 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M2/dwl=false/W=0":  "128x256 W=64 segs=1 mux=0 Npre=26 Nwr=2 VDDC=0.52 VSSC=-0.11 VWL=0.49 D=1.6069978500415053e-10 E=1.846145820177935e-14 EDP=2.966752363889053e-24 | evaluated=304 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M2/dwl=false/W=8":  "128x256 W=8 segs=1 mux=0 Npre=22 Nwr=1 VDDC=0.52 VSSC=-0.04 VWL=0.49 D=1.7028290891165501e-10 E=1.8132261779180264e-14 EDP=3.0876142809064366e-24 | evaluated=304 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M2/dwl=true/W=0":   "128x256 W=64 segs=4 mux=0 Npre=22 Nwr=1 VDDC=0.52 VSSC=-0.1 VWL=0.49 D=1.890799040771659e-10 E=1.7773935615414842e-14 EDP=3.3606940412363606e-24 | evaluated=408 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/LVT/M2/dwl=true/W=8":   "128x256 W=8 segs=8 mux=0 Npre=22 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.49 D=1.7028290891165501e-10 E=1.6448023397180262e-14 EDP=2.800817269918817e-24 | evaluated=210 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M1/dwl=false/W=0":  "128x256 W=64 segs=1 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=2.2649059558886298e-10 E=9.444098096896942e-15 EDP=2.1389994027658358e-24 | evaluated=155 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M1/dwl=false/W=8":  "128x256 W=8 segs=1 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=2.2649059558886298e-10 E=9.751236596896944e-15 EDP=2.2085633845591062e-24 | evaluated=155 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M1/dwl=true/W=0":   "128x256 W=64 segs=4 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=2.534023612191024e-10 E=8.205497841658989e-15 EDP=2.079292528054636e-24 | evaluated=158 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M1/dwl=true/W=8":   "128x256 W=8 segs=8 mux=0 Npre=11 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=2.1686535663003272e-10 E=8.058518354780247e-15 EDP=1.7476134569190827e-24 | evaluated=162 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M2/dwl=false/W=0":  "128x256 W=64 segs=1 mux=0 Npre=13 Nwr=1 VDDC=0.45 VSSC=-0.08 VWL=0.52 D=1.9266638520000229e-10 E=9.39059039801969e-15 EDP=1.8092511068803043e-24 | evaluated=304 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M2/dwl=false/W=8":  "128x256 W=8 segs=1 mux=0 Npre=16 Nwr=1 VDDC=0.45 VSSC=-0.16 VWL=0.52 D=1.7240242508940077e-10 E=9.89345018236147e-15 EDP=1.705654803940292e-24 | evaluated=405 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M2/dwl=true/W=0":   "128x256 W=64 segs=4 mux=0 Npre=17 Nwr=1 VDDC=0.45 VSSC=-0.22 VWL=0.52 D=1.9067885025868838e-10 E=8.508557433891526e-15 EDP=1.6224019488544521e-24 | evaluated=408 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/4096B/HVT/M2/dwl=true/W=8":   "128x256 W=8 segs=8 mux=0 Npre=20 Nwr=1 VDDC=0.45 VSSC=-0.12 VWL=0.52 D=1.7122671671729916e-10 E=8.11291970436012e-15 EDP=1.3891486039686648e-24 | evaluated=418 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M1/dwl=false/W=0": "256x512 W=64 segs=1 mux=0 Npre=23 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=3.165531148272565e-10 E=8.32184715545109e-14 EDP=2.634306638174387e-23 | evaluated=226 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M1/dwl=false/W=8": "256x512 W=8 segs=1 mux=0 Npre=23 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=3.165531148272565e-10 E=8.36531850545109e-14 EDP=2.6480676294226327e-23 | evaluated=151 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M1/dwl=true/W=0":  "256x512 W=64 segs=8 mux=0 Npre=23 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=2.863359079814679e-10 E=7.423079215946538e-14 EDP=2.1254941273164146e-23 | evaluated=311 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M1/dwl=true/W=8":  "256x512 W=8 segs=8 mux=0 Npre=23 Nwr=2 VDDC=0.52 VSSC=0 VWL=0.52 D=2.863359079814679e-10 E=7.387170565946538e-14 EDP=2.115212191414276e-23 | evaluated=238 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M2/dwl=false/W=0": "256x512 W=64 segs=1 mux=0 Npre=31 Nwr=1 VDDC=0.52 VSSC=-0.01 VWL=0.49 D=3.141084468562773e-10 E=8.254999565547132e-14 EDP=2.5929650923332536e-23 | evaluated=298 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M2/dwl=false/W=8": "512x256 W=8 segs=1 mux=0 Npre=50 Nwr=4 VDDC=0.52 VSSC=-0.24 VWL=0.49 D=2.0967381147271257e-10 E=6.205765303846269e-14 EDP=1.3011864643625635e-23 | evaluated=694 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M2/dwl=true/W=0":  "256x512 W=64 segs=8 mux=0 Npre=38 Nwr=2 VDDC=0.52 VSSC=-0.18 VWL=0.49 D=2.375468105666231e-10 E=6.505209255731272e-14 EDP=1.5452917107674396e-23 | evaluated=306 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/LVT/M2/dwl=true/W=8":  "256x512 W=8 segs=8 mux=0 Npre=37 Nwr=2 VDDC=0.52 VSSC=-0.24 VWL=0.49 D=2.30295819658127e-10 E=6.352156062192101e-14 EDP=1.4628749869388702e-23 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M1/dwl=false/W=0": "256x512 W=64 segs=1 mux=0 Npre=16 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=4.0900252923689206e-10 E=2.0974156739316604e-14 EDP=8.578483154991496e-24 | evaluated=151 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M1/dwl=false/W=8": "256x512 W=8 segs=1 mux=0 Npre=16 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=4.0900252923689206e-10 E=2.1408870239316602e-14 EDP=8.756282075984916e-24 | evaluated=151 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M1/dwl=true/W=0":  "256x512 W=64 segs=8 mux=0 Npre=16 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=3.779752043373025e-10 E=1.7092968572922957e-14 EDP=6.460718289081645e-24 | evaluated=157 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M1/dwl=true/W=8":  "256x512 W=8 segs=8 mux=0 Npre=16 Nwr=1 VDDC=0.52 VSSC=0 VWL=0.52 D=3.779752043373025e-10 E=1.7527682072922955e-14 EDP=6.625029213072328e-24 | evaluated=159 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M2/dwl=false/W=0": "256x512 W=64 segs=1 mux=0 Npre=25 Nwr=1 VDDC=0.45 VSSC=-0.13 VWL=0.52 D=3.1557689095839685e-10 E=2.037053774202851e-14 EDP=6.428470967780039e-24 | evaluated=397 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M2/dwl=false/W=8": "256x512 W=8 segs=1 mux=0 Npre=24 Nwr=1 VDDC=0.45 VSSC=-0.18 VWL=0.52 D=2.974690709359281e-10 E=2.090773052977463e-14 EDP=6.219403176070799e-24 | evaluated=397 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M2/dwl=true/W=0":  "256x512 W=64 segs=8 mux=0 Npre=30 Nwr=1 VDDC=0.45 VSSC=-0.08 VWL=0.52 D=3.1495486499350823e-10 E=1.652646369992833e-14 EDP=5.205090143431042e-24 | evaluated=407 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
	"simulated/16384B/HVT/M2/dwl=true/W=8":  "256x512 W=8 segs=8 mux=0 Npre=20 Nwr=1 VDDC=0.45 VSSC=-0.1 VWL=0.52 D=2.994551935904055e-10 E=1.6890302118331083e-14 EDP=5.057888690645271e-24 | evaluated=310 skipped=0 rsnm=0 geom=0 rails=0 vssc=0 bound=0 chunks=0",
}

// TestSensitivityMatchesGridNeighbors: every finite SensitivityAt entry at
// an exhaustive optimum equals, bit for bit, an independent array.Evaluate
// of the neighbor one position along the candidate lists — the organization
// list, the V_SSC levels the search visits, the fin counts — divided by the
// optimum's objective; and every NaN entry with a neighbor on the lists
// names an infeasible one; a point between two V_SSC levels is an error.
// Paper and simulated mode, M1 and M2, 128 B to 32 KB, both flavors.
func TestSensitivityMatchesGridNeighbors(t *testing.T) {
	for _, mode := range []Mode{TechPaper, TechSimulated} {
		t.Run(mode.String(), func(t *testing.T) {
			f := paperFramework(t)
			if mode == TechSimulated {
				f = simFramework(t)
			}
			act := array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta}
			for bytes := 128; bytes <= 32768; bytes *= 2 {
				for _, fl := range []device.Flavor{device.LVT, device.HVT} {
					for _, m := range []Method{M1, M2} {
						opts := Options{CapacityBits: bytes * 8, Flavor: fl, Method: m}
						checkSensitivityOnGrid(t, f, opts, act)
					}
				}
			}
		})
	}
}

func checkSensitivityOnGrid(t *testing.T, f *Framework, opts Options, act array.Activity) {
	t.Helper()
	opt, err := f.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := f.SensitivityAt(opts, opt.Best)
	if err != nil {
		t.Fatal(err)
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		t.Fatal(err)
	}
	space := DefaultSpace()
	rows := rowCandidates(opts.CapacityBits, space)
	levels := vsscCandidates(opts.Method, space)
	d, base := opt.Best.Design, opt.Best.Result.EDP
	ri := slices.IndexFunc(rows, func(rc rowCand) bool { return rc.nr == d.Geom.NR })
	vi := slices.Index(levels, d.VSSC)
	if ri < 0 || vi < 0 {
		t.Fatalf("%+v: optimum %+v is off the candidate lists", opts, d)
	}
	off := opt.Best
	off.Design.VSSC -= 1e-3 // between two levels
	if _, err := f.SensitivityAt(opts, off); err == nil {
		t.Errorf("%+v: SensitivityAt accepted the off-grid point %+v", opts, off.Design)
	}
	// neighbor moves variable k one position down (step −1, toward the
	// smaller value) or up (+1). The V_SSC levels run from 0 down.
	neighbor := func(k, step int) (array.Design, bool) {
		nd := d
		switch k {
		case 0:
			if ri+step < 0 || ri+step >= len(rows) {
				return nd, false
			}
			rc := rows[ri+step]
			nd.Geom.NR, nd.Geom.NC, nd.Geom.W = rc.nr, rc.nc, min(DefaultW, rc.nc)
		case 1:
			if vi-step < 0 || vi-step >= len(levels) {
				return nd, false
			}
			nd.VSSC = levels[vi-step]
		case 2:
			nd.Geom.Npre += step
			return nd, nd.Geom.Npre >= 1 && nd.Geom.Npre <= space.NpreMax
		case 3:
			nd.Geom.Nwr += step
			return nd, nd.Geom.Nwr >= 1 && nd.Geom.Nwr <= space.NwrMax
		}
		return nd, true
	}
	cc := f.Cells[opts.Flavor]
	for k, s := range sens {
		for j, rel := range [2]float64{s.DownRel, s.UpRel} {
			nd, onList := neighbor(k, 2*j-1)
			var r *array.Result
			if onList {
				r, err = array.Evaluate(tech, nd, act)
			}
			switch {
			case !math.IsNaN(rel) && !onList:
				t.Errorf("%+v %s %d: finite %v for a neighbor off the lists", opts, s.Variable, 2*j-1, rel)
			case !math.IsNaN(rel) && err != nil:
				t.Errorf("%+v %s %v: finite %v, but Evaluate: %v", opts, s.Variable, nd, rel, err)
			case !math.IsNaN(rel):
				if want := r.EDP / base; rel != want {
					t.Errorf("%+v %s at %+v: %v, want %v", opts, s.Variable, nd, rel, want)
				}
			case onList && err == nil && r.RailsSettleInTime && cc.RSNMAt(nd.VSSC) >= f.Delta-1e-9:
				t.Errorf("%+v %s: NaN for the feasible neighbor %+v", opts, s.Variable, nd)
			}
		}
	}
}
