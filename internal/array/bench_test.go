package array

import (
	"slices"
	"testing"

	"sramco/internal/wire"
)

func benchEvaluator(b *testing.B) *Evaluator {
	b.Helper()
	ev, err := NewEvaluator(testTech(b), Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 512, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkEvalSweep measures the struct-of-arrays row kernel on a full
// 20-point N_wr row — the exact shape the branch-and-bound searcher runs.
func BenchmarkEvalSweep(b *testing.B) {
	ev := benchEvaluator(b)
	var sweep SweepBlock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalSweep(1+i%50, 1, 20, &sweep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*20), "ns/point")
}

// BenchmarkBoundRect measures the per-rectangle cost of the lower bound the
// searcher pays before deciding to prune or sweep a unit.
func BenchmarkBoundRect(b *testing.B) {
	ev := benchEvaluator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.BoundRect(1, 50, 1, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRectBound measures the sweep's rectangle bound: SweepBound over
// the sub-rectangles a 50×20 unit bisects into, N_wr first, on its way to
// the first point, and the upper N_wr half, with the lanes filled once.
func BenchmarkRectBound(b *testing.B) {
	ev := benchEvaluator(b)
	ev.FillLanes(20)
	rects := [][4]int{{1, 50, 1, 10}, {1, 50, 11, 20}, {1, 50, 1, 5}, {1, 50, 6, 10}, {1, 50, 1, 3}, {1, 50, 4, 5},
		{1, 50, 1, 2}, {1, 50, 3, 3}, {1, 50, 1, 1}, {1, 50, 2, 2}, {1, 25, 1, 1}, {26, 50, 1, 1}, {1, 13, 1, 1}}
	var bd Bound
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rects {
			ev.SweepBound(r[0], r[1], r[2], r[3], &bd)
			sink += bd.EDP
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rects)), "ns/bound")
	if sink == 0 {
		b.Fatal("zero bounds")
	}
}

// BenchmarkPrepareHybrid measures one hybrid chunk Prepare — 8 row groups,
// a mixed mask, a muxed divided-wordline organization — three ways. wrapper
// goes through PrepareHybrid, which rebuilds the rail stage (device I–V
// evaluations) and the mask terms on every call; staged goes through
// PrepareStaged on a prebuilt stage, the mask terms still derived per call.
// Both alternate geometries, so neither the geometry memo nor the decoder
// memo hides the per-organization cost: each is a full prepare. sibling
// prepares one geometry from one stage, cycling the class representatives
// of the 8-group mask partition (100 with this fixture's leakage; 94 with
// the paper's flavors) with each Mask built once, as the search's bound pass
// prepares the units of one (chunk, segmentation, mux) pair: every call is
// a memo hit that stamps only its mask.
func BenchmarkPrepareHybrid(b *testing.B) {
	ev, err := NewEvaluator(testTech(b), Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	alt := altTerms()
	geoms := []wire.Geometry{
		{NR: 256, NC: 512, W: 64, Npre: 1, Nwr: 1, WLSegs: 2, Mux: 4},
		{NR: 512, NC: 256, W: 64, Npre: 1, Nwr: 1, WLSegs: 2, Mux: 4},
	}
	const vddc, vssc, vwl, mask = 0.55, -0.1, 0.55, 0xA5
	h := Hybrid{Groups: 8, Mask: mask, Alt: alt}
	b.Run("wrapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ev.PrepareHybrid(geoms[i&1], vddc, vssc, vwl, h); err != nil {
				b.Fatal(err)
			}
		}
	})
	rs, err := ev.Rails(vddc, vssc, vwl, &alt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("staged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := geoms[i&1]
			m := NewMask(g.Bits(), 8, mask, ev.tech.LeakCell, alt.LeakCell)
			if err := ev.PrepareStaged(g, &rs, &m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sibling", func(b *testing.B) {
		g := geoms[0]
		var reps []Mask
		var keys []MaskKey
		for m := uint32(0); m < 1<<8; m++ {
			mk := NewMask(g.Bits(), 8, m, ev.tech.LeakCell, alt.LeakCell)
			// Pure masks are classes of their own: a search pins each
			// flavor's rails, so they share no rail class with a mixed one.
			if k := mk.Key(); m == 0 || m == 1<<8-1 || !slices.Contains(keys, k) {
				keys = append(keys, k)
				reps = append(reps, mk)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.PrepareStaged(g, &rs, &reps[i%len(reps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
