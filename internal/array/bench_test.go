package array

import (
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
// searcher pays before deciding to prune or sweep.
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

// BenchmarkPrepareHybrid measures one hybrid chunk Prepare — 8 row groups,
// a mixed mask, a muxed divided-wordline organization — through the
// PrepareHybrid wrapper, which rebuilds the rail stage (device I–V
// evaluations) on every call, and through PrepareStaged on a prebuilt
// stage, the form the branch-and-bound searcher pays per unit. Geometries
// alternate so the decoder memo does not hide the per-organization cost.
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
	b.Run("staged", func(b *testing.B) {
		rs, err := ev.Rails(vddc, vssc, vwl, &alt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.PrepareStaged(geoms[i&1], &rs, 8, mask); err != nil {
				b.Fatal(err)
			}
		}
	})
}
