package cell

import (
	"errors"
	"math/rand"
	"testing"

	"sramco/internal/device"
)

// TestScratchMatchesNaive proves one reused workspace reproduces the Cell
// methods, which build a fresh one per call: SNMs and write margins
// bit-identical. Several variations run through ONE scratch back to back, so
// any state leaking between samples would show up as a mismatch.
func TestScratchMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sim parity test")
	}
	base := New(device.HVT)
	s, err := NewScratch(base)
	if err != nil {
		t.Fatal(err)
	}
	vdd := device.Vdd
	rb := NominalRead(vdd)
	wb := NominalWrite(vdd)

	rng := rand.New(rand.NewSource(5))
	vars := []Variation{{}}
	for k := 0; k < 2; k++ {
		var v Variation
		for i := range v {
			v[i] = rng.NormFloat64() * 0.025
		}
		vars = append(vars, v)
	}

	for vi, dvt := range vars {
		naive := &Cell{Lib: base.Lib, Flavor: base.Flavor, DVt: dvt}

		h0, err0 := naive.HoldSNM(vdd)
		h1, err1 := s.HoldSNM(dvt, vdd)
		if err0 != nil || err1 != nil {
			t.Fatalf("var %d hold: %v / %v", vi, err0, err1)
		}
		if h0 != h1 {
			t.Errorf("var %d: HoldSNM naive %v != scratch %v", vi, h0, h1)
		}

		r0, err0 := naive.ReadSNM(rb)
		r1, err1 := s.ReadSNM(dvt, rb)
		if err0 != nil || err1 != nil {
			t.Fatalf("var %d read: %v / %v", vi, err0, err1)
		}
		if r0 != r1 {
			t.Errorf("var %d: ReadSNM naive %v != scratch %v", vi, r0, r1)
		}

		w0, err0 := naive.WriteMargin(wb)
		w1, err1 := s.WriteMargin(dvt, wb)
		if err0 != nil || err1 != nil {
			t.Fatalf("var %d write: %v / %v", vi, err0, err1)
		}
		if w0 != w1 {
			t.Errorf("var %d: WriteMargin naive %v != scratch %v", vi, w0, w1)
		}
	}
}

// TestScratchWriteFail proves the scratch write path reports ErrWriteFail for
// a cell that cannot flip, matching the naive semantics the Monte Carlo
// engine's fail-fraction accounting depends on.
func TestScratchWriteFail(t *testing.T) {
	base := New(device.HVT)
	s, err := NewScratch(base)
	if err != nil {
		t.Fatal(err)
	}
	// A wordline far below threshold cannot flip the cell.
	wb := WriteBias{Vdd: device.Vdd, VWL: 0.05, VBL: 0}
	if _, err := s.WriteMargin(Variation{}, wb); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("want ErrWriteFail, got %v", err)
	}
}

// TestScratchBuildsOnDemand proves a Scratch builds only the netlists its
// calls need: SNMs alone never build the write probe, and write margins
// alone never build the VTC netlists.
func TestScratchBuildsOnDemand(t *testing.T) {
	snm, err := NewScratch(New(device.HVT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snm.HoldSNM(Variation{}, device.Vdd); err != nil {
		t.Fatal(err)
	}
	if _, err := snm.ReadSNM(Variation{}, NominalRead(device.Vdd)); err != nil {
		t.Fatal(err)
	}
	if snm.vtc == nil || snm.wr != nil {
		t.Errorf("after SNMs: VTC netlists built %v, write probe built %v; want true, false", snm.vtc != nil, snm.wr != nil)
	}

	wm, err := NewScratch(New(device.HVT))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wm.WriteMargin(Variation{}, NominalWrite(device.Vdd)); err != nil {
		t.Fatal(err)
	}
	if wm.wr == nil || wm.vtc != nil {
		t.Errorf("after a write margin: write probe built %v, VTC netlists built %v; want true, false", wm.wr != nil, wm.vtc != nil)
	}
}

// TestScratchMarginsNoAllocs pins every Monte Carlo margin at zero
// allocations once a Scratch has built its netlists: rails move in place
// and FET names are fixed at build time, so a new perturbation or bias
// boxes no value and builds no string.
func TestScratchMarginsNoAllocs(t *testing.T) {
	s, err := NewScratch(New(device.LVT))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	draws := make([]Variation, 3)
	for k := range draws {
		for i := range draws[k] {
			draws[k][i] = rng.NormFloat64() * 0.025
		}
	}
	rb, wb := NominalRead(device.Vdd), NominalWrite(device.Vdd)
	margins := []struct {
		name string
		f    func(Variation) (float64, error)
	}{
		{"HoldSNM", func(v Variation) (float64, error) { return s.HoldSNM(v, device.Vdd) }},
		{"ReadSNM", func(v Variation) (float64, error) { return s.ReadSNM(v, rb) }},
		{"WriteMargin", func(v Variation) (float64, error) { return s.WriteMargin(v, wb) }},
	}
	for _, m := range margins {
		for _, v := range draws { // warm-up: builds the netlists and step-halving buffers
			if _, err := m.f(v); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
		k := 0
		n := testing.AllocsPerRun(len(draws), func() {
			if _, err := m.f(draws[k%len(draws)]); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			k++
		})
		if n != 0 {
			t.Errorf("Scratch.%s allocates %v times per call after warm-up, want 0", m.name, n)
		}
	}
}
