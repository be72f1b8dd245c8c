package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"sramco"
	"sramco/internal/catalog"
)

// TestCatalogServesLookups installs a synthetic catalog and asserts the
// serving layer answers from it — X-Cache: catalog, exact bytes, no search
// run — while uncatalogued requests still fall through to a live fill.
func TestCatalogServesLookups(t *testing.T) {
	fw := framework(t)
	s := New(fw, Config{})
	var searches atomic.Int64
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		searches.Add(1)
		return fw.Optimize(ctx, opts)
	}

	req := OptimizeRequest{CapacityBytes: 128, Flavor: "hvt"}
	if aerr := req.normalize(); aerr != nil {
		t.Fatal(aerr)
	}
	canned := []byte(`{"canned":true}`)
	bld := catalog.NewBuilder(fw.Fingerprint())
	if err := bld.Add(req.key("optimize"), canned); err != nil {
		t.Fatal(err)
	}
	cat, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.SetCatalog(cat)
	if s.Catalog() != cat {
		t.Fatal("Catalog() does not return the installed catalog")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := snapshotCounters("serve.catalog.hit", "serve.cache.miss", "serve.cache.hit")
	code, hdr, body := postJSON(t, ts.URL+"/v1/optimize", optimizeBody)
	if code != http.StatusOK || hdr.Get("X-Cache") != "catalog" {
		t.Fatalf("status %d X-Cache %q, want 200/catalog", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body, canned) {
		t.Errorf("body %s, want the catalog entry verbatim", body)
	}
	if searches.Load() != 0 {
		t.Errorf("catalog hit ran %d searches", searches.Load())
	}
	if d.delta("serve.catalog.hit") != 1 || d.delta("serve.cache.miss") != 0 {
		t.Errorf("catalog.hit=%d cache.miss=%d, want 1/0",
			d.delta("serve.catalog.hit"), d.delta("serve.cache.miss"))
	}

	// A request outside the grid falls through to a live fill.
	code, hdr, _ = postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":256,"flavor":"hvt"}`)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("uncatalogued: status %d X-Cache %q, want 200/miss", code, hdr.Get("X-Cache"))
	}
	if searches.Load() != 1 {
		t.Errorf("uncatalogued request ran %d searches, want 1", searches.Load())
	}

	// Clearing the catalog (an atomic swap to nil) restores live behavior.
	s.SetCatalog(nil)
	code, hdr, _ = postJSON(t, ts.URL+"/v1/optimize", optimizeBody)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("after clear: status %d X-Cache %q, want 200/miss", code, hdr.Get("X-Cache"))
	}
}

// TestCatalogMatchesGoldenOptima is the catalog acceptance gate: for every
// row of testdata/golden_optima.json, a catalog-served /v1/optimize response
// must be bit-identical to the live-search response, and its design must be
// the golden design.
func TestCatalogMatchesGoldenOptima(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden_optima.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Rows []struct {
			CapacityBits int    `json:"capacity_bits"`
			Flavor       string `json:"flavor"`
			Method       string `json:"method"`
			NR           int    `json:"nr"`
			NC           int    `json:"nc"`
			Npre         int    `json:"npre"`
			Nwr          int    `json:"nwr"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Rows) == 0 {
		t.Fatal("no golden rows")
	}

	fw := framework(t)
	caps := map[int]bool{}
	var grid CatalogGrid
	for _, r := range golden.Rows {
		if b := r.CapacityBits / 8; !caps[b] {
			caps[b] = true
			grid.CapacitiesBytes = append(grid.CapacitiesBytes, b)
		}
	}
	grid.Flavors = []string{"lvt", "hvt"}
	grid.Methods = []string{"m1", "m2"}
	grid.Objectives = []string{"edp"}

	withCat := New(fw, Config{})
	cat, err := withCat.BuildCatalog(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Fingerprint() != fw.Fingerprint() {
		t.Error("catalog fingerprint does not match the framework")
	}
	withCat.SetCatalog(cat)
	live := New(fw, Config{})

	tsCat := httptest.NewServer(withCat.Handler())
	defer tsCat.Close()
	tsLive := httptest.NewServer(live.Handler())
	defer tsLive.Close()

	for _, row := range golden.Rows {
		body := fmt.Sprintf(`{"capacity_bytes":%d,"flavor":%q,"method":%q}`,
			row.CapacityBits/8, strings.ToLower(row.Flavor), strings.ToLower(row.Method))
		code, hdr, got := postJSON(t, tsCat.URL+"/v1/optimize", body)
		if code != http.StatusOK || hdr.Get("X-Cache") != "catalog" {
			t.Fatalf("%s: status %d X-Cache %q, want 200/catalog", body, code, hdr.Get("X-Cache"))
		}
		codeLive, _, want := postJSON(t, tsLive.URL+"/v1/optimize", body)
		if codeLive != http.StatusOK {
			t.Fatalf("%s: live search failed: %d %s", body, codeLive, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: catalog response not bit-identical to live search", body)
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatal(err)
		}
		g := resp.Design.Geom
		if g.NR != row.NR || g.NC != row.NC || g.Npre != row.Npre || g.Nwr != row.Nwr {
			t.Errorf("%s: catalog design %dx%d npre=%d nwr=%d, golden %dx%d npre=%d nwr=%d",
				body, g.NR, g.NC, g.Npre, g.Nwr, row.NR, row.NC, row.Npre, row.Nwr)
		}
	}
}

// TestCatalogEntriesMatchLiveBodies checks every entry of a catalog built
// over one capacity, both flavors and methods, every objective, hybrid
// groups and the Pareto fronts: each must equal, byte for byte, the body a
// catalog-less server writes for the same request on its own endpoint.
func TestCatalogEntriesMatchLiveBodies(t *testing.T) {
	fw := framework(t)
	grid := CatalogGrid{
		CapacitiesBytes: []int{128},
		Flavors:         []string{"lvt", "hvt"},
		Methods:         []string{"m1", "m2"},
		Objectives:      []string{"edp", "delay", "energy", "area", "padp"},
		Pareto:          true,
		Groups:          []int{2},
	}
	withCat := New(fw, Config{})
	cat, err := withCat.BuildCatalog(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	withCat.SetCatalog(cat)
	tsCat := httptest.NewServer(withCat.Handler())
	defer tsCat.Close()
	tsLive := httptest.NewServer(New(fw, Config{}).Handler())
	defer tsLive.Close()

	// Every cell of this grid is feasible, so each one is an entry.
	type cell struct {
		path string
		o    *op
		body string
	}
	var cells []cell
	for _, fl := range grid.Flavors {
		for _, m := range grid.Methods {
			for _, obj := range grid.Objectives {
				for _, g := range []int{0, 2} {
					cells = append(cells, cell{"/v1/optimize", opOptimize,
						fmt.Sprintf(`{"capacity_bytes":128,"flavor":%q,"method":%q,"objective":%q,"groups":%d}`, fl, m, obj, g)})
				}
			}
			cells = append(cells, cell{"/v1/pareto", opPareto,
				fmt.Sprintf(`{"capacity_bytes":128,"flavor":%q,"method":%q}`, fl, m)})
		}
	}
	if cat.Len() != len(cells) {
		t.Fatalf("catalog holds %d entries for %d grid cells", cat.Len(), len(cells))
	}
	for _, c := range cells {
		req := c.o.newRequest()
		if aerr := decodeJSON(strings.NewReader(c.body), req); aerr != nil {
			t.Fatal(aerr)
		}
		if aerr := req.normalize(); aerr != nil {
			t.Fatal(aerr)
		}
		key, _, _ := req.call(withCat, c.o)
		entry, ok := cat.Lookup(key)
		if !ok {
			t.Fatalf("%s %s: no catalog entry under %s", c.path, c.body, key)
		}
		code, hdr, got := postJSON(t, tsCat.URL+c.path, c.body)
		codeLive, _, want := postJSON(t, tsLive.URL+c.path, c.body)
		if code != http.StatusOK || hdr.Get("X-Cache") != "catalog" || !bytes.Equal(got, entry) {
			t.Errorf("%s %s: status %d X-Cache %q, want the catalog entry", c.path, c.body, code, hdr.Get("X-Cache"))
		}
		if codeLive != http.StatusOK || !bytes.Equal(entry, want) {
			t.Errorf("%s %s: catalog entry differs from the live body (live status %d)", c.path, c.body, codeLive)
		}
	}
}
