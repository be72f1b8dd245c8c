package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeOptimizeCached measures the hot serving path: a fully
// cached /v1/optimize request through the real handler stack (decode,
// normalize, canonical key, LRU hit, write). The first request fills the
// cache outside the timed loop.
func BenchmarkServeOptimizeCached(b *testing.B) {
	s := New(framework(b), Config{})
	warm := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeBody))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm-up fill failed: %d %s", rec.Code, rec.Body.String())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeBody))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkServeOptimizeCatalogHit measures the fastest tier of the read
// path with the full observability middleware in front: decode, normalize,
// canonical key, catalog lookup, write — plus trace minting, the RED
// histogram observe and the response headers. This is the guarded serving
// benchmark: the middleware must stay within the bench-compare gate of the
// pre-middleware baseline.
func BenchmarkServeOptimizeCatalogHit(b *testing.B) {
	h := catalogHitHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := postCatalogHit(h); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// TestCatalogHitAllocs pins the allocations of one catalog hit through the
// full handler stack, request and recorder included: a hit builds its key
// without fmt and no wait context. The read path took 56 allocations
// while every request built both.
func TestCatalogHitAllocs(t *testing.T) {
	h := catalogHitHandler(t)
	if n := testing.AllocsPerRun(200, func() { postCatalogHit(h) }); n >= 56 {
		t.Errorf("catalog hit: %.0f allocs/op, want under 56", n)
	}
}

// catalogHitHandler returns the handler stack of a server whose catalog
// holds optimizeBody's answer, checked to answer it from the catalog.
func catalogHitHandler(tb testing.TB) http.Handler {
	tb.Helper()
	s := catalogServer(tb, CatalogGrid{
		CapacitiesBytes: []int{128},
		Flavors:         []string{"hvt"},
		Methods:         []string{"m2"},
		Objectives:      []string{"edp"},
	})
	warm := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeBody))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "catalog" {
		tb.Fatalf("warm-up: code %d X-Cache %q, want a catalog answer", rec.Code, rec.Header().Get("X-Cache"))
	}
	return s.Handler()
}

// postCatalogHit posts optimizeBody to h and returns the status.
func postCatalogHit(h http.Handler) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(optimizeBody))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code
}

// catalogServer returns a server with a catalog of grid installed.
func catalogServer(tb testing.TB, grid CatalogGrid) *Server {
	tb.Helper()
	s := New(framework(tb), Config{})
	cat, err := s.BuildCatalog(context.Background(), grid)
	if err != nil {
		tb.Fatal(err)
	}
	s.SetCatalog(cat)
	return s
}
