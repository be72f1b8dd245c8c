// Command sramcat builds, inspects and verifies precomputed design-space
// catalogs (internal/catalog): the binary files sramd loads to answer
// /v1/optimize and /v1/pareto lookups without running a search.
//
// Usage:
//
//	sramcat build -o catalog.bin [-mode paper] [-caps 1024,2048,...]
//	        [-flavors lvt,hvt] [-methods m1,m2] [-objectives edp,delay,energy]
//	        [-pareto]
//	sramcat inspect catalog.bin
//	sramcat verify catalog.bin [-mode paper]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/cliutil"
	"sramco/internal/serve"
)

func main() {
	cliutil.SetName("sramcat")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		cliutil.Fatalf("unknown subcommand %q (want build, inspect or verify)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sramcat build -o catalog.bin [flags]")
	fmt.Fprintln(os.Stderr, "       sramcat inspect <catalog.bin>")
	fmt.Fprintln(os.Stderr, "       sramcat verify <catalog.bin> [-mode paper]")
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(flagName, s string) []int {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			cliutil.Fatalf("-%s: %q is not a positive integer", flagName, f)
		}
		out = append(out, v)
	}
	return out
}

func build(args []string) {
	fs := flag.NewFlagSet("sramcat build", flag.ExitOnError)
	out := fs.String("o", "catalog.bin", "output file")
	modeStr := fs.String("mode", "paper", "calibration mode: paper or simulated")
	def := serve.DefaultCatalogGrid()
	caps := fs.String("caps", intList(def.CapacitiesBytes), "comma-separated capacities in bytes")
	flavors := fs.String("flavors", strings.Join(def.Flavors, ","), "comma-separated device flavors")
	methods := fs.String("methods", strings.Join(def.Methods, ","), "comma-separated assist methods")
	objectives := fs.String("objectives", strings.Join(def.Objectives, ","), "comma-separated objectives")
	pareto := fs.Bool("pareto", def.Pareto, "also precompute the Pareto front of each cell")
	fs.Parse(args)

	grid := serve.CatalogGrid{
		CapacitiesBytes: splitInts("caps", *caps),
		Flavors:         splitList(*flavors),
		Methods:         splitList(*methods),
		Objectives:      splitList(*objectives),
		Pareto:          *pareto,
	}
	if len(grid.CapacitiesBytes) == 0 || len(grid.Flavors) == 0 || len(grid.Methods) == 0 || len(grid.Objectives) == 0 {
		cliutil.Fatalf("empty grid: every dimension needs at least one value")
	}

	mode, err := sramco.ParseMode(*modeStr)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "sramcat: characterizing technology (%v mode)...\n", mode)
	fw, err := sramco.NewFramework(mode)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}

	start := time.Now()
	cat, err := serve.New(fw, serve.Config{}).BuildCatalog(context.Background(), grid)
	if err != nil {
		cliutil.Fatalf("build: %v", err)
	}
	if err := cat.WriteFile(*out); err != nil {
		cliutil.Fatalf("%v", err)
	}
	fpr := cat.Fingerprint()
	fmt.Printf("sramcat: wrote %s: %d entries, %d bytes, fingerprint %x, built in %s\n",
		*out, cat.Len(), cat.Size(), fpr[:8], time.Since(start).Round(time.Millisecond))
	cliutil.Shutdown()
}

func inspect(args []string) {
	fs := flag.NewFlagSet("sramcat inspect", flag.ExitOnError)
	keys := fs.Bool("keys", false, "list every entry key")
	fs.Parse(args)
	if fs.NArg() != 1 {
		cliutil.Fatalf("inspect: want exactly one catalog file")
	}
	cat, err := catalog.Load(fs.Arg(0))
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	fpr := cat.Fingerprint()
	fmt.Printf("file:        %s\n", fs.Arg(0))
	fmt.Printf("version:     %d\n", catalog.Version)
	fmt.Printf("fingerprint: %x\n", fpr)
	fmt.Printf("entries:     %d\n", cat.Len())
	fmt.Printf("size:        %d bytes\n", cat.Size())
	if *keys {
		for _, k := range cat.Keys() {
			body, _ := cat.Lookup(k)
			fmt.Printf("  %s (%d bytes)\n", k, len(body))
		}
	}
	cliutil.Shutdown()
}

func verify(args []string) {
	fs := flag.NewFlagSet("sramcat verify", flag.ExitOnError)
	modeStr := fs.String("mode", "paper", "calibration mode: paper or simulated")
	fs.Parse(args)
	if fs.NArg() != 1 {
		cliutil.Fatalf("verify: want exactly one catalog file")
	}
	cat, err := catalog.Load(fs.Arg(0))
	if err != nil {
		cliutil.Fatalf("%v", err)
	}

	mode, err := sramco.ParseMode(*modeStr)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "sramcat: characterizing technology (%v mode)...\n", mode)
	fw, err := sramco.NewFramework(mode)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	want, got := fw.Fingerprint(), cat.Fingerprint()
	if want != got {
		cliutil.Fatalf("stale catalog: fingerprint %x, current technology is %x", got[:8], want[:8])
	}
	fmt.Printf("sramcat: %s is current (%d entries, fingerprint %x)\n", fs.Arg(0), cat.Len(), got[:8])
	cliutil.Shutdown()
}

// intList formats ints as a comma-separated flag default.
func intList(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
