package sramco

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sramco/internal/array"
	"sramco/internal/core"
	"sramco/internal/device"
)

const goldenHybridPath = "testdata/golden_hybrid.json"

// hybridGoldenRow is one committed min-PADP optimum of the hybrid
// cell-assignment study: the full design tuple (including the new
// group/mask/mux dimensions) plus every evaluated metric.
type hybridGoldenRow struct {
	Label  string `json:"label"` // "lvt", "hvt" or "hybrid-g8"
	Groups int    `json:"groups,omitempty"`
	Mask   uint32 `json:"group_mask,omitempty"`

	NR     int `json:"nr"`
	NC     int `json:"nc"`
	Npre   int `json:"npre"`
	Nwr    int `json:"nwr"`
	WLSegs int `json:"wl_segs,omitempty"`
	Mux    int `json:"mux,omitempty"`

	VDDC float64 `json:"vddc_v"`
	VSSC float64 `json:"vssc_v"`
	VWL  float64 `json:"vwl_v"`

	DelayS  float64 `json:"delay_s"`
	EnergyJ float64 `json:"energy_j"`
	EDP     float64 `json:"edp_js"`
	AreaM2  float64 `json:"area_m2"`
	PADP    float64 `json:"padp_jsm2"`
}

type hybridGoldenFile struct {
	Comment string            `json:"comment"`
	Rows    []hybridGoldenRow `json:"rows"`
}

// computeGoldenHybrid runs the three 16 KB M2 min-PADP searches the hybrid
// study compares: pure LVT, pure HVT, and the 8-group hybrid assignment,
// all over the same search space with the column-mux dimension enabled
// (mux ratios up to 4). The study is pinned to the all-columns energy
// accounting and a read-dominated workload (α = 1): under the default
// worst-case-path accounting the 16 KB leakage term dominates so completely
// that the all-HVT mask is optimal and the hybrid dimension degenerates;
// with switching energy fully charged, keeping the one far-from-the-sense-
// amps row group LVT buys back the bitline delay the HVT groups cost, and
// the mixed assignment wins strictly.
func computeGoldenHybrid(t *testing.T) *hybridGoldenFile {
	t.Helper()
	fw, err := NewFrameworkWithAccounting(TechPaper, array.AllColumns)
	if err != nil {
		t.Fatalf("NewFrameworkWithAccounting: %v", err)
	}
	padp, ok := ObjectiveByName("padp")
	if !ok {
		t.Fatal("padp objective missing")
	}
	g := &hybridGoldenFile{
		Comment: "Min-PADP optima at 16 KB / M2 under all-columns accounting with alpha=1, mux<=4: pure LVT, pure HVT, and the 8-group hybrid; regenerate with: go test -run TestGoldenHybrid -update .",
	}
	for _, tc := range []struct {
		label  string
		flavor device.Flavor
		groups int
	}{
		{"lvt", device.LVT, 0},
		{"hvt", device.HVT, 0},
		{"hybrid-g8", device.LVT, 8},
	} {
		sp := core.DefaultSpace()
		sp.MuxMax = 4
		opts := Options{
			CapacityBits: 16 * 1024 * 8,
			Flavor:       tc.flavor,
			Method:       M2,
			Objective:    padp,
			Activity:     array.Activity{Alpha: 1, Beta: 0.5},
			HybridGroups: tc.groups,
			Space:        sp,
		}
		opt, err := fw.Optimize(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		d, r := opt.Best.Design, opt.Best.Result
		g.Rows = append(g.Rows, hybridGoldenRow{
			Label:  tc.label,
			Groups: d.Groups,
			Mask:   d.GroupMask,
			NR:     d.Geom.NR, NC: d.Geom.NC, Npre: d.Geom.Npre, Nwr: d.Geom.Nwr,
			WLSegs: d.Geom.WLSegs, Mux: d.Geom.Mux,
			VDDC: d.VDDC, VSSC: d.VSSC, VWL: d.VWL,
			DelayS: r.DArray, EnergyJ: r.EArray, EDP: r.EDP,
			AreaM2: r.Area, PADP: r.PADP,
		})
	}
	return g
}

// TestGoldenHybrid pins the hybrid study's headline: at 16 KB under the
// min-PADP objective, mixing cell flavors per row group beats both pure
// flavors strictly — the committed rows lock the winning assignment, its
// mux ratio and every metric.
func TestGoldenHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid 16 KB searches skipped in -short mode")
	}
	got := computeGoldenHybrid(t)

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenHybridPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHybridPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", goldenHybridPath, len(got.Rows))
		return
	}

	buf, err := os.ReadFile(goldenHybridPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want hybridGoldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count %d, golden has %d", len(got.Rows), len(want.Rows))
	}
	const relTol = 1e-9
	byLabel := map[string]hybridGoldenRow{}
	for i, w := range want.Rows {
		g := got.Rows[i]
		byLabel[w.Label] = w
		if g.Label != w.Label {
			t.Fatalf("row %d is %q, golden expects %q (ordering changed?)", i, g.Label, w.Label)
		}
		if g.Groups != w.Groups || g.Mask != w.Mask || g.Mux != w.Mux || g.WLSegs != w.WLSegs {
			t.Errorf("%s: hybrid tuple (groups,mask,mux,segs) = (%d,%#x,%d,%d), golden (%d,%#x,%d,%d)",
				w.Label, g.Groups, g.Mask, g.Mux, g.WLSegs, w.Groups, w.Mask, w.Mux, w.WLSegs)
		}
		if g.NR != w.NR || g.NC != w.NC || g.Npre != w.Npre || g.Nwr != w.Nwr {
			t.Errorf("%s: geometry (nr,nc,npre,nwr) = (%d,%d,%d,%d), golden (%d,%d,%d,%d)",
				w.Label, g.NR, g.NC, g.Npre, g.Nwr, w.NR, w.NC, w.Npre, w.Nwr)
		}
		for _, c := range []struct {
			label     string
			got, want float64
		}{
			{"vddc", g.VDDC, w.VDDC},
			{"vssc", g.VSSC, w.VSSC},
			{"vwl", g.VWL, w.VWL},
			{"delay", g.DelayS, w.DelayS},
			{"energy", g.EnergyJ, w.EnergyJ},
			{"edp", g.EDP, w.EDP},
			{"area", g.AreaM2, w.AreaM2},
			{"padp", g.PADP, w.PADP},
		} {
			if !closeRel(c.got, c.want, relTol) {
				t.Errorf("%s: %s = %g, golden %g", w.Label, c.label, c.got, c.want)
			}
		}
	}

	// The acceptance property: the hybrid assignment beats both pure
	// flavors strictly on PADP — in the committed file and in the live run.
	for _, rows := range []map[string]hybridGoldenRow{byLabel, {
		"lvt": got.Rows[0], "hvt": got.Rows[1], "hybrid-g8": got.Rows[2],
	}} {
		hyb, lvt, hvt := rows["hybrid-g8"], rows["lvt"], rows["hvt"]
		if !(hyb.PADP < lvt.PADP && hyb.PADP < hvt.PADP) {
			t.Errorf("hybrid PADP %g is not strictly below pure LVT %g and pure HVT %g",
				hyb.PADP, lvt.PADP, hvt.PADP)
		}
		if hyb.Mask == 0 || hyb.Mask == (1<<uint(hyb.Groups))-1 {
			t.Errorf("winning mask %#x is a pure assignment — the hybrid dimension added nothing", hyb.Mask)
		}
	}
}
