package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/serve"
)

// TestSetupCatalogRebuildsStale drives sramd's stale-catalog path: a catalog
// file written under a foreign technology fingerprint, holding a bogus body
// for every key of the grid, is never installed and its bodies are never
// served; live search answers until the background rebuild swaps in; and
// the rewritten file carries the framework's fingerprint and the live
// bodies.
func TestSetupCatalogRebuildsStale(t *testing.T) {
	fw, err := sramco.NewFramework(sramco.TechPaper)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grid := serve.CatalogGrid{
		CapacitiesBytes: []int{4 << 10},
		Flavors:         []string{"hvt"},
		Methods:         []string{"m1", "m2"},
		Objectives:      []string{"edp", "delay", "energy"},
		Pareto:          true,
	}
	want, err := serve.New(fw, serve.Config{}).BuildCatalog(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}

	fpr := fw.Fingerprint()
	foreign := fpr
	foreign[0] ^= 0xff
	bogus := []byte(`{"bogus":true}`)
	stale := catalog.NewBuilder(foreign)
	for _, k := range want.Keys() {
		if err := stale.Add(k, bogus); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := stale.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.bin")
	if err := cat.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(fw, serve.Config{CacheSize: -1})
	setupCatalog(ctx, srv, fw, path, grid)

	// Ask for one grid cell until the catalog answers. The rebuild fills
	// every cell of the grid before it swaps, so the first answer, one
	// search, is live.
	const body = `{"capacity_bytes":4096,"flavor":"hvt","method":"m2","objective":"edp"}`
	var live []byte
	deadline := time.Now().Add(2 * time.Minute)
	for n := 0; ; n++ {
		if c := srv.Catalog(); c != nil && c.Fingerprint() != fpr {
			t.Fatal("the stale catalog was installed")
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)))
		got, src := rec.Body.Bytes(), rec.Header().Get("X-Cache")
		if rec.Code != http.StatusOK || bytes.Contains(got, []byte("bogus")) {
			t.Fatalf("request %d: status %d X-Cache %q body %s", n, rec.Code, src, got)
		}
		if src == "catalog" {
			if n == 0 {
				t.Fatal("the first request was answered from a catalog, not by live search")
			}
			if !bytes.Equal(got, live) {
				t.Fatalf("rebuilt catalog body %s differs from the live body %s", got, live)
			}
			break
		}
		if src != "miss" {
			t.Fatalf("request %d: X-Cache %q before the swap, want a live miss", n, src)
		}
		if live == nil {
			live = append([]byte(nil), got...)
		} else if !bytes.Equal(got, live) {
			t.Fatalf("live bodies differ between requests: %s vs %s", got, live)
		}
		if time.Now().After(deadline) {
			t.Fatal("the rebuilt catalog never swapped in")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The file is rewritten after the swap.
	for {
		disk, err := catalog.Load(path)
		if err == nil && disk.Fingerprint() == fpr {
			if disk.Len() != want.Len() {
				t.Fatalf("rewritten catalog has %d entries, want %d", disk.Len(), want.Len())
			}
			for _, k := range want.Keys() {
				got, _ := disk.Lookup(k)
				if w, _ := want.Lookup(k); !bytes.Equal(got, w) {
					t.Fatalf("rewritten entry %s = %s, want %s", k, got, w)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("catalog file never rewritten under the current fingerprint (last load error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
