package wire

import (
	"math"
	"testing"
	"testing/quick"
)

var dc = DeviceCaps{Cdn: 0.04e-15, Cdp: 0.04e-15, Cgn: 0.07e-15, Cgp: 0.07e-15}

func geo(nr, nc int) Geometry { return Geometry{NR: nr, NC: nc, W: 64, Npre: 4, Nwr: 2} }

func TestWireConstants(t *testing.T) {
	// C_width = 5 · 43 nm · 0.17 fF/µm = 36.55 aF (paper §5 numbers).
	want := 5 * 43e-9 * 0.17e-9
	if math.Abs(CWidth()-want)/want > 1e-12 {
		t.Fatalf("CWidth = %g, want %g", CWidth(), want)
	}
	if math.Abs(CHeight()-0.4*CWidth()) > 1e-25 {
		t.Fatalf("CHeight = %g, want 0.4·CWidth", CHeight())
	}
}

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{
		{NR: 64, NC: 64, W: 64, Npre: 1, Nwr: 1},
		{NR: 2, NC: 1024, W: 64, Npre: 50, Nwr: 20},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", g, err)
		}
	}
	bad := []Geometry{
		{NR: 48, NC: 64, W: 64, Npre: 1, Nwr: 1},  // nr not power of two
		{NR: 64, NC: 48, W: 64, Npre: 1, Nwr: 1},  // nc not power of two
		{NR: 64, NC: 32, W: 64, Npre: 1, Nwr: 1},  // nc < W
		{NR: 64, NC: 64, W: 64, Npre: 0, Nwr: 1},  // Npre < 1
		{NR: 64, NC: 64, W: 64, Npre: 1, Nwr: 0},  // Nwr < 1
		{NR: 1, NC: 64, W: 64, Npre: 1, Nwr: 1},   // nr < 2
		{NR: 64, NC: 64, W: 48, Npre: 1, Nwr: 1},  // W not power of two
		{NR: 64, NC: 64, W: -1, Npre: 1, Nwr: 1},  // W negative
		{NR: -64, NC: 64, W: 64, Npre: 1, Nwr: 1}, // negative
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", g)
		}
	}
}

func TestDeviceCapsValidate(t *testing.T) {
	if err := dc.Validate(); err != nil {
		t.Fatalf("valid caps rejected: %v", err)
	}
	badDC := dc
	badDC.Cgn = 0
	if err := badDC.Validate(); err == nil {
		t.Fatal("zero Cgn accepted")
	}
}

func TestTable1HandComputed(t *testing.T) {
	g := Geometry{NR: 64, NC: 16, W: 64, Npre: 7, Nwr: 1}
	// CVDD = nc(Cw + 2Cdp) + 40 Cdp
	wantCVDD := 16*(CWidth()+2*dc.Cdp) + 40*dc.Cdp
	if got := CVDD(g, dc); math.Abs(got-wantCVDD) > 1e-25 {
		t.Errorf("CVDD = %g, want %g", got, wantCVDD)
	}
	wantCVSS := 16*(CWidth()+2*dc.Cdn) + 40*dc.Cdn
	if got := CVSS(g, dc); math.Abs(got-wantCVSS) > 1e-25 {
		t.Errorf("CVSS = %g, want %g", got, wantCVSS)
	}
	wantWL := 16*(CWidth()+2*dc.Cgn) + 27*(dc.Cdn+dc.Cdp)
	if got := WL(g, dc); math.Abs(got-wantWL) > 1e-25 {
		t.Errorf("WL = %g, want %g", got, wantWL)
	}
	// nc = 16 ≤ W = 64: no mux.
	if got := COL(g, dc); got != 0 {
		t.Errorf("COL = %g, want 0 for unmuxed array", got)
	}
	wantBL := 64*(CHeight()+dc.Cdn) + 8*dc.Cdp + 1*(dc.Cdn+dc.Cdp) + dc.Cdp
	if got := BL(g, dc); math.Abs(got-wantBL) > 1e-25 {
		t.Errorf("BL = %g, want %g", got, wantBL)
	}
}

func TestTable1MuxedBranch(t *testing.T) {
	g := Geometry{NR: 256, NC: 128, W: 64, Npre: 18, Nwr: 4}
	if !g.Muxed() {
		t.Fatal("expected muxed geometry")
	}
	wantCOL := 128*CWidth() + 27*(dc.Cdn+dc.Cdp) + 2*64*4*(dc.Cgn+dc.Cgp)
	if got := COL(g, dc); math.Abs(got-wantCOL) > 1e-25 {
		t.Errorf("COL = %g, want %g", got, wantCOL)
	}
	wantBL := 256*(CHeight()+dc.Cdn) + 19*dc.Cdp + 2*4*(dc.Cdn+dc.Cdp)
	if got := BL(g, dc); math.Abs(got-wantBL) > 1e-25 {
		t.Errorf("BL = %g, want %g", got, wantBL)
	}
}

// TestCapacitancesMonotone: all Table-1 capacitances must grow (or stay
// equal) when the geometry grows — the property the optimizer exploits.
func TestCapacitancesMonotone(t *testing.T) {
	prop := func(e1, e2 uint8, pre, wr uint8) bool {
		nr := 1 << (1 + e1%9) // 2..512
		nc := 64 << (e2 % 5)  // 64..1024
		np := 1 + int(pre%50) // 1..50
		nw := 1 + int(wr%20)  // 1..20
		g := Geometry{NR: nr, NC: nc, W: 64, Npre: np, Nwr: nw}
		g2 := Geometry{NR: nr * 2, NC: nc * 2, W: 64, Npre: np + 1, Nwr: nw + 1}
		if g.Validate() != nil || g2.Validate() != nil {
			return false
		}
		return CVDD(g2, dc) >= CVDD(g, dc) &&
			CVSS(g2, dc) >= CVSS(g, dc) &&
			WL(g2, dc) >= WL(g, dc) &&
			COL(g2, dc) >= COL(g, dc) &&
			BL(g2, dc) >= BL(g, dc) &&
			BL(g, dc) > 0 && WL(g, dc) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBLGrowsWithPrechargerFins(t *testing.T) {
	g1 := geo(128, 128)
	g2 := g1
	g2.Npre = g1.Npre + 10
	if !(BL(g2, dc) > BL(g1, dc)) {
		t.Error("BL capacitance must grow with N_pre (the paper's core trade-off)")
	}
	g3 := g1
	g3.Nwr = g1.Nwr + 5
	if !(BL(g3, dc) > BL(g1, dc)) {
		t.Error("BL capacitance must grow with N_wr")
	}
}

func TestBitsAndMuxed(t *testing.T) {
	g := geo(128, 64)
	if g.Bits() != 8192 {
		t.Errorf("Bits = %d, want 8192 (1KB)", g.Bits())
	}
	if g.Muxed() {
		t.Error("nc=W must not be muxed")
	}
	if !geo(64, 128).Muxed() {
		t.Error("nc>W must be muxed")
	}
}

func TestDividedWordlineGeometry(t *testing.T) {
	g := Geometry{NR: 256, NC: 512, W: 64, Npre: 8, Nwr: 2, WLSegs: 4}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid DWL geometry rejected: %v", err)
	}
	if g.Segments() != 4 {
		t.Errorf("Segments = %d", g.Segments())
	}
	flat := g
	flat.WLSegs = 0
	if flat.Segments() != 1 {
		t.Errorf("flat Segments = %d", flat.Segments())
	}
	bad := g
	bad.WLSegs = 3 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("WLSegs=3 accepted")
	}
	negative := g
	negative.WLSegs = -4 // Segments reads it as flat, but no count is negative
	if err := negative.Validate(); err == nil {
		t.Error("WLSegs=-4 accepted")
	}
	narrow := g
	narrow.NC = 128
	narrow.WLSegs = 4 // segment width 32 < W=64
	if err := narrow.Validate(); err == nil {
		t.Error("segment narrower than access width accepted")
	}
}

func TestDWLCapacitances(t *testing.T) {
	g := Geometry{NR: 256, NC: 512, W: 64, Npre: 8, Nwr: 2, WLSegs: 4}
	flatWL := WL(g, dc)
	gwl := GWL(g, dc)
	lwl := LWL(g, dc)
	if !(gwl < flatWL) {
		t.Errorf("global WL (%g) should be lighter than flat WL (%g): no access gates", gwl, flatWL)
	}
	if !(lwl < flatWL) {
		t.Errorf("local WL (%g) must be far below flat WL (%g)", lwl, flatWL)
	}
	// The local segment carries 1/4 of the access gates.
	g8 := g
	g8.WLSegs = 8
	if !(LWL(g8, dc) < lwl) {
		t.Error("more segments must shrink the local wordline")
	}
	if LWLDriverFins() < 1 {
		t.Error("LWL driver fins must be positive")
	}
}
