package cell

import (
	"errors"
	"math/rand"
	"testing"

	"sramco/internal/device"
)

// BenchmarkReadSNM measures one read-SNM extraction (two VTC sweeps plus
// the largest-square search) — the unit of work behind Figs. 2-3 and the
// Monte Carlo yield engine.
func BenchmarkReadSNM(b *testing.B) {
	c := New(device.HVT)
	bias := NominalRead(device.Vdd)
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadSNM(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakagePower measures one standby-leakage operating point.
func BenchmarkLeakagePower(b *testing.B) {
	c := New(device.HVT)
	for i := 0; i < b.N; i++ {
		if _, err := c.LeakagePower(device.Vdd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMargin measures one write-margin extraction on the
// allocating path: Cell.WriteMargin builds its write netlist and bisects the
// trip 28 times (30 flip probes).
func BenchmarkWriteMargin(b *testing.B) {
	c := New(device.HVT)
	bias := NominalWrite(device.Vdd)
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteMargin(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScratchWriteMargin measures the per-sample write-margin cost the
// Monte Carlo engine pays: one reusable Scratch per flavor, the nominal
// write bias, and a fixed cycle of seeded 1σ draws (run a multiple of 16
// iterations, e.g. -benchtime 32x, to weigh every draw equally).
func BenchmarkScratchWriteMargin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	draws := make([]Variation, 16)
	for k := range draws {
		for i := range draws[k] {
			draws[k][i] = rng.NormFloat64() * 0.025
		}
	}
	bias := NominalWrite(device.Vdd)
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		b.Run(fl.String(), func(b *testing.B) {
			s, err := NewScratch(New(fl))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.WriteMargin(draws[i%len(draws)], bias); err != nil && !errors.Is(err, ErrWriteFail) {
					b.Fatal(err)
				}
			}
		})
	}
}
