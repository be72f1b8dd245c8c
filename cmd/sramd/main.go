// Command sramd serves the co-optimization framework over HTTP/JSON: the
// /v1/optimize, /v1/evaluate, /v1/pareto and /v1/yield endpoints with a
// bounded LRU result cache, coalescing of concurrent identical requests, a
// worker pool with per-request deadlines, and graceful drain on SIGTERM.
//
// Usage:
//
//	sramd [-addr :8347] [-mode paper] [-cache 256] [-workers N]
//	      [-timeout 60s] [-drain-timeout 30s] [-catalog catalog.bin]
//	      [-access-log] [-trace-buf 4096] [-debug-addr :6060]
//	      [-trace out.jsonl] [-metrics] [-debug]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Observability: every request gets a trace ID (adopted from an inbound W3C
// traceparent header, minted otherwise), echoed as X-Request-Id, stamped on
// every span the request's work emits, logged in the structured access log,
// and buffered in an in-memory ring recorder dumped by GET /debug/trace
// (?limit=N traces). -trace additionally mirrors every span to a JSONL
// file; -trace-buf sizes the ring. -debug-addr starts a second listener
// serving net/http/pprof under /debug/pprof/.
//
// With -catalog, sramd serves /v1/optimize and /v1/pareto lookups for the
// standard design-space grid straight from the precomputed catalog file
// (built with sramcat, see internal/catalog). A missing or stale catalog —
// one whose technology fingerprint no longer matches the current device
// library — is recomputed in the background and atomically swapped in (and
// rewritten to the file) once ready; the server answers from live search in
// the meantime.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/cliutil"
	"sramco/internal/obs"
	"sramco/internal/serve"
)

func main() {
	cliutil.SetName("sramd")
	addr := flag.String("addr", ":8347", "listen address")
	modeStr := flag.String("mode", "paper", "calibration mode: paper or simulated")
	cacheSize := flag.Int("cache", 256, "result-cache entries (negative disables caching)")
	workers := flag.Int("workers", 0, "concurrent optimizer runs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request compute deadline cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight work on shutdown")
	catalogPath := flag.String("catalog", "", "precomputed design-space catalog file (missing or stale: rebuilt in the background)")
	catalogGroups := flag.String("catalog-groups", "", "comma-separated hybrid group counts to precompute per catalog cell (e.g. \"4,8\")")
	accessLog := flag.Bool("access-log", true, "log one structured line per request to stderr")
	traceBuf := flag.Int("trace-buf", 0, "span ring-buffer capacity behind /debug/trace (0 = default)")
	debugAddr := flag.String("debug-addr", "", "optional second listener serving net/http/pprof under /debug/pprof/")
	obsFlags := cliutil.ObsFlags()
	flag.Parse()
	if flag.NArg() > 0 {
		// Catch the classic bool-flag trap: "-access-log file.log" parses
		// -access-log as true and silently drops file.log and every flag
		// after it. Better to refuse than to run half-configured.
		cliutil.Fatalf("unexpected arguments %q (a boolean flag like -access-log takes =false, not a value)", flag.Args())
	}

	mode, err := sramco.ParseMode(*modeStr)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	if err := obsFlags.Start(); err != nil {
		cliutil.Fatalf("%v", err)
	}

	// The span recorder backs /debug/trace and is always on: it joins
	// whatever sinks the -trace/-debug flags installed.
	recorder := obs.NewRecorder(*traceBuf)
	sinks := obs.MultiSink{recorder}
	if prev := obs.CurrentSink(); prev != nil {
		sinks = append(sinks, prev)
	}
	obs.SetSink(sinks)
	cliutil.OnExit(func() { obs.SetSink(nil) })

	fmt.Fprintf(os.Stderr, "sramd: characterizing technology (%v mode)...\n", mode)
	fw, err := sramco.NewFramework(mode)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}

	cfg := serve.Config{
		CacheSize: *cacheSize,
		Timeout:   *timeout,
		Workers:   *workers,
		Recorder:  recorder,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := serve.New(fw, cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	// SIGINT/SIGTERM triggers the drain sequence: stop accepting, let
	// in-flight requests finish within the grace period, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *catalogPath != "" {
		grid := serve.DefaultCatalogGrid()
		var err error
		if grid.Groups, err = parseGroupsList(*catalogGroups); err != nil {
			cliutil.Fatalf("-catalog-groups: %v", err)
		}
		setupCatalog(ctx, srv, fw, *catalogPath, grid)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sramd: listening on %s\n", *addr)

	select {
	case err := <-errCh:
		cliutil.Fatalf("listen %s: %v", *addr, err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "sramd: shutdown signal, draining for up to %s\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Shutdown stops the listener and waits for handlers to return; Drain
	// refuses new /v1/* work and only cancels the compute context once the
	// in-flight requests have finished (or the grace period expires).
	shutdownErr := httpSrv.Shutdown(drainCtx)
	drainErr := srv.Drain(drainCtx)
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatalf("serve: %v", err)
	}
	if shutdownErr != nil || drainErr != nil {
		cliutil.Fatalf("drain incomplete after %s (shutdown: %v, drain: %v)", *drainTimeout, shutdownErr, drainErr)
	}
	fmt.Fprintln(os.Stderr, "sramd: drained cleanly")
	cliutil.Shutdown()
}

// parseGroupsList parses the -catalog-groups value: a comma-separated list
// of hybrid group counts, each a power of two in [2, 8].
func parseGroupsList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad group count %q: %v", part, err)
		}
		if g < 2 || g > 8 || g&(g-1) != 0 {
			return nil, fmt.Errorf("group count %d must be a power of two in [2, 8]", g)
		}
		out = append(out, g)
	}
	return out, nil
}

// serveDebug runs the pprof listener. It is intentionally separate from the
// service listener so profiling endpoints can stay unexposed (bound to
// localhost, firewalled) while /v1/* serves traffic.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "sramd: pprof listening on %s\n", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "sramd: pprof listener: %v\n", err)
	}
}

// setupCatalog installs the catalog at path if it matches the framework's
// technology fingerprint; otherwise it recomputes the default grid in the
// background (canceled by shutdown), swaps the result in atomically and
// rewrites the file. The server runs on live search until the swap.
func setupCatalog(ctx context.Context, srv *serve.Server, fw *sramco.Framework, path string, grid serve.CatalogGrid) {
	cat, err := catalog.Load(path)
	switch {
	case err == nil && cat.Fingerprint() == fw.Fingerprint():
		srv.SetCatalog(cat)
		fmt.Fprintf(os.Stderr, "sramd: catalog %s loaded (%d entries)\n", path, cat.Len())
		return
	case err == nil:
		fmt.Fprintf(os.Stderr, "sramd: catalog %s is stale (technology changed), recomputing in background\n", path)
	case os.IsNotExist(err):
		fmt.Fprintf(os.Stderr, "sramd: catalog %s missing, computing in background\n", path)
	default:
		fmt.Fprintf(os.Stderr, "sramd: catalog %s unreadable (%v), recomputing in background\n", path, err)
	}
	go func() {
		cat, err := srv.BuildCatalog(ctx, grid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sramd: catalog build failed: %v\n", err)
			return
		}
		srv.SetCatalog(cat)
		if err := cat.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "sramd: writing catalog %s: %v\n", path, err)
			return
		}
		fmt.Fprintf(os.Stderr, "sramd: catalog rebuilt and saved to %s (%d entries)\n", path, cat.Len())
	}()
}
