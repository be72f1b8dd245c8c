package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"sramco/internal/array"
	"sramco/internal/core"
	"sramco/internal/device"
)

var update = flag.Bool("update", false, "regenerate golden files")

const goldenJSON = "testdata/golden_json.json"

// normalizeReport zeroes the environmental search statistics (wall clock,
// worker count) that legitimately vary between runs, leaving everything the
// CLI contract promises to be deterministic.
func normalizeReport(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	stats, ok := m["search_stats"].(map[string]any)
	if !ok {
		t.Fatalf("report has no search_stats object:\n%s", raw)
	}
	stats["Wall"] = 0.0
	stats["Workers"] = 0.0
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestRunJSONGolden runs what `sramopt -bytes 128 -json` runs — the search
// flags parsed into options, characterize, optimize, report — and diffs the
// emitted JSON against the committed golden, so the CLI's machine-readable
// contract — field names, units, and the optimum itself — cannot drift
// silently.
func TestRunJSONGolden(t *testing.T) {
	var sf searchFlags
	fs := flag.NewFlagSet("sramopt", flag.ContinueOnError)
	sf.register(fs)
	if err := fs.Parse([]string{"-bytes", "128"}); err != nil {
		t.Fatal(err)
	}
	mode, opts, err := sf.options()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := fw.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, fw, mode, opts, opt); err != nil {
		t.Fatal(err)
	}
	got := normalizeReport(t, buf.Bytes())

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenJSON, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenJSON, len(got))
		return
	}

	wantRaw, err := os.ReadFile(goldenJSON)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := normalizeReport(t, wantRaw)
	if !bytes.Equal(got, want) {
		t.Errorf("sramopt -json output drifted from %s.\ngot:\n%s\nwant:\n%s\n(regenerate with -update if the change is intended)",
			goldenJSON, got, want)
	}
}

// TestCompareDesignReproducesHybridOptimum runs a hybrid search and passes
// the optimum's own organization to -compare. The comparison design inherits
// the optimum's rails and row-group assignment, so its evaluation must
// reproduce the optimum's delay, energy and EDP bit for bit.
func TestCompareDesignReproducesHybridOptimum(t *testing.T) {
	checkCompareReproducesOptimum(t, 4096, core.Options{Flavor: device.LVT, Method: core.M2, HybridGroups: 2},
		"alternate-flavor groups", func(d array.Design) bool { return d.Groups == 2 && d.GroupMask != 0 })
}

// TestCompareDesignReproducesDWLAndMuxOptima does the same for a
// divided-wordline optimum and a sense-amp-sharing one: the comparison
// design inherits the optimum's wordline segments and mux ratio, which the
// -compare spec does not name.
func TestCompareDesignReproducesDWLAndMuxOptima(t *testing.T) {
	t.Run("dwl", func(t *testing.T) {
		checkCompareReproducesOptimum(t, 16384, core.Options{Flavor: device.HVT, Method: core.M2, SearchWLSegs: true},
			"wordline segments", func(d array.Design) bool { return d.Geom.Segments() > 1 })
	})
	t.Run("mux", func(t *testing.T) {
		area, _ := core.ObjectiveByName("area")
		sp := core.DefaultSpace()
		sp.MuxMax = 4
		checkCompareReproducesOptimum(t, 2048, core.Options{Flavor: device.LVT, Method: core.M2, Objective: area, Space: sp},
			"shared sense amps", func(d array.Design) bool { return d.Geom.MuxRatio() > 1 })
	})
}

// checkCompareReproducesOptimum searches capBytes under opts, checks the
// optimum has what the case is about (need), and passes the optimum's own
// organization to -compare: the evaluation must reproduce the optimum's
// delay, energy and EDP bit for bit.
func checkCompareReproducesOptimum(t *testing.T, capBytes int, opts core.Options, need string, has func(array.Design) bool) {
	t.Helper()
	fw, err := core.NewFramework(core.TechPaper, core.FrameworkOpts{})
	if err != nil {
		t.Fatal(err)
	}
	opts.CapacityBits = capBytes * 8
	opt, err := fw.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d, want := opt.Best.Design, opt.Best.Result
	if !has(d) {
		t.Fatalf("optimum %+v: the case needs %s", d, need)
	}
	mv := int(math.Round(d.VSSC * 1000))
	if float64(mv)/1000 != d.VSSC {
		t.Fatalf("optimum VSSC %v is not a whole millivolt", d.VSSC)
	}
	spec := fmt.Sprintf("%dx%d:%d:%d:%d", d.Geom.NR, d.Geom.NC, d.Geom.Npre, d.Geom.Nwr, mv)
	got, err := compareDesign(fw, opts.Flavor, spec, opts.CapacityBits, opt.Best)
	if err != nil {
		t.Fatalf("compareDesign(%s): %v", spec, err)
	}
	if got.DArray != want.DArray || got.EArray != want.EArray || got.EDP != want.EDP {
		t.Errorf("-compare %s (%+v): D=%x E=%x EDP=%x, optimum (%+v) D=%x E=%x EDP=%x",
			spec, got.Design, got.DArray, got.EArray, got.EDP, d, want.DArray, want.EArray, want.EDP)
	}
}
