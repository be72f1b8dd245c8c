// Command benchcompare guards against performance regressions: it compares
// named benchmarks between two benchmark logs and exits non-zero when the
// current run is slower than the baseline by more than the allowed fraction,
// when it allocates more objects per op by more than the same fraction, when
// it does more deterministic work, or when a required benchmark is missing
// from either log.
//
// Benchmarks that report the searchers' "space-points" metric (the candidate
// space covered, including bound-pruned points) in both logs are compared on
// ns per candidate point instead of raw ns/op, so a branch-and-bound change
// that alters how much of the space is evaluated is judged by its effect on
// total cost per unit of search, not misread as a benchmark-shape change.
//
// Benchmarks also report deterministic work counts — model evaluations,
// units prepared, bounds, Newton iterations, transient steps, DC sweep
// points — that repeat exactly on any host. benchcompare gates every such
// count both logs report: any increase fails at once, naming the benchmark
// and the counter, whatever the timings say. Counts only one log reports
// are skipped and listed. The pruning and work-size metrics (pruned-bound,
// bound-eff, samples, space-points) are not gated: the first two rise when
// pruning improves, and the last two are the normalizers.
//
// Allocation counts (allocs/op, reported under -benchmem) repeat within a
// fraction of a percent run to run, so unlike times they need no paired
// runs: an allocs/op more than the allowed fraction above the baseline
// fails. A benchmark whose allocs/op only one log reports is skipped and
// listed.
//
// Both `go test -json` logs (the BENCH_<yyyymmdd>T<hhmmss>_<short-sha>.json
// archives written by `make bench`) and plain `go test -bench` text output are accepted. When a
// log repeats a benchmark (`-count=N`), the fastest run is used — noise only
// ever adds time, so min-of-N is the stable estimate of true cost — and the
// largest of each work count and of allocs/op.
//
// Usage:
//
//	benchcompare -baseline BENCH_20260806.json -current new.json \
//	             [-max-regress 0.10] BenchmarkA BenchmarkB ...
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json stream benchcompare needs. The
// tool reassembles each package's Output fragments before scanning: test2json
// splits a single benchmark result line across several events (the name and
// the "N ns/op" tail arrive separately), so per-line regexes on raw events
// miss every benchmark.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches one benchmark result in reassembled text output, e.g.
// "BenchmarkModelEvaluation-8   643032   1754 ns/op   560 B/op". The -N
// GOMAXPROCS suffix is stripped so logs from different machines compare; the
// tail of the line is kept so custom metrics can be read out of it.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9]+(?:\.[0-9]+)?) ns/op(.*)$`)

// workUnitsMetric matches a benchmark's work-size metric: the searchers'
// "space-points" (candidate space covered, including bound-pruned points) or
// the Monte Carlo engine's "samples" (draws characterized per op). When both
// logs report the same metric, benchmarks are compared on ns per work unit,
// so a change in how much work one op covers — pruning more of the space,
// stopping a yield run earlier — is not misread as a latency change.
var workUnitsMetric = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?) (space-points|samples)\b`)

// workMetrics are the deterministic work counts the gate compares: any
// increase over the baseline fails.
var workMetrics = []string{"model-evals", "units-prepared", "bounds", "newton-its", "tran-steps", "sweep-points"}

// allocsMetric is the allocation count the gate compares at the allowed
// fraction; parseWork keeps it beside the work counts.
const allocsMetric = "allocs/op"

// metricPair matches one "<value> <unit>" custom metric of a result line.
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?) (\S+)`)

// benchResult is one parsed benchmark line: raw ns/op plus the optional
// work-unit normalizer (0 when the benchmark does not report one), and the
// gated work counts and allocs/op it reports.
type benchResult struct {
	ns     float64
	points float64
	unit   string // "space-points" or "samples" when points > 0
	work   map[string]float64
}

// parseWork reads the gated work counts and allocs/op out of a result
// line's tail.
func parseWork(tail string) map[string]float64 {
	w := make(map[string]float64)
	for _, m := range metricPair.FindAllStringSubmatch(tail, -1) {
		if m[2] != allocsMetric && !slices.Contains(workMetrics, m[2]) {
			continue
		}
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			w[m[2]] = v
		}
	}
	return w
}

// normalized returns the comparable metric — ns per work unit when the
// benchmark reports its work size, raw ns/op otherwise.
func (r benchResult) normalized(usePoints bool) float64 {
	if usePoints && r.points > 0 {
		return r.ns / r.points
	}
	return r.ns
}

// parseLog extracts Benchmark name → result from a benchmark log in either
// format. For a repeated name (a -count=N run) the fastest result wins:
// scheduler and co-tenant noise only ever add time, so the minimum is the
// best estimate of the code's true cost and makes the gate robust to a
// single slow iteration on a loaded machine.
func parseLog(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	outputs := make(map[string]*strings.Builder) // package → concatenated output
	var order []string
	var plain strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Action == "" {
			// Not a test2json stream: treat the whole file as plain text.
			plain.WriteString(line)
			plain.WriteByte('\n')
			continue
		}
		if ev.Action != "output" {
			continue
		}
		b, ok := outputs[ev.Package]
		if !ok {
			b = &strings.Builder{}
			outputs[ev.Package] = b
			order = append(order, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}

	results := make(map[string]benchResult)
	scan := func(text string) {
		for _, m := range benchLine.FindAllStringSubmatch(text, -1) {
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r := benchResult{ns: ns, work: parseWork(m[3])}
			if pm := workUnitsMetric.FindStringSubmatch(m[3]); pm != nil {
				if p, err := strconv.ParseFloat(pm[1], 64); err == nil {
					r.points = p
					r.unit = pm[2]
				}
			}
			if prev, seen := results[m[1]]; seen {
				for k, v := range prev.work {
					r.work[k] = max(r.work[k], v)
				}
				if prev.normalized(true) <= r.normalized(true) {
					r.ns, r.points, r.unit = prev.ns, prev.points, prev.unit
				}
			}
			results[m[1]] = r
		}
	}
	for _, pkg := range order {
		scan(outputs[pkg].String())
	}
	scan(plain.String())
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return results, nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline benchmark log (required)")
	current := flag.String("current", "", "current benchmark log (required)")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum allowed ns/op and allocs/op increase as a fraction of the baseline")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchcompare -baseline FILE -current FILE [-max-regress 0.10] [Benchmark...]\n\n"+
				"Without explicit names every benchmark present in both logs is compared;\n"+
				"named benchmarks are required in both logs.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *baseline == "" || *current == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := parseLog(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	curr, err := parseLog(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}

	if compare(os.Stdout, base, curr, flag.Args(), *maxRegress) {
		fmt.Fprintf(os.Stderr, "benchcompare: regression beyond %.0f%%, work increase or missing benchmark vs %s\n",
			*maxRegress*100, *baseline)
		os.Exit(1)
	}
}

// compare writes the time, allocation and work tables of the named
// benchmarks (every benchmark both logs hold when names is empty; named ones
// must be in both) to w, and reports whether the gate fails: a normalized
// time or an allocs/op more than maxRegress above the baseline, any
// increase of a work count, or a missing named benchmark.
func compare(w io.Writer, base, curr map[string]benchResult, names []string, maxRegress float64) (failed bool) {
	required := len(names) > 0
	if !required {
		for name := range base {
			if _, ok := curr[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "no common benchmarks between the two logs")
		return true
	}

	fmt.Fprintf(w, "%-40s %14s %14s %9s %10s\n", "benchmark", "baseline", "current", "delta", "unit")
	var both []string
	for _, name := range names {
		b, okB := base[name]
		c, okC := curr[name]
		if !okB || !okC {
			if required {
				missing := "baseline"
				if okB {
					missing = "current"
				}
				fmt.Fprintf(w, "%-40s missing from the %s log\n", name, missing)
				failed = true
			}
			continue
		}
		both = append(both, name)
		// Normalize only when both runs report the same work-size metric; a
		// log from before the metric existed still compares on raw ns/op.
		usePoints := b.points > 0 && c.points > 0 && b.unit == c.unit
		unit := "ns/op"
		if usePoints {
			if b.unit == "samples" {
				unit = "ns/sample"
			} else {
				unit = "ns/point"
			}
		}
		bv, cv := b.normalized(usePoints), c.normalized(usePoints)
		delta := (cv - bv) / bv
		mark := ""
		if delta > maxRegress {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-40s %14.2f %14.2f %8.1f%% %10s%s\n", name, bv, cv, delta*100, unit, mark)
	}

	fmt.Fprintf(w, "\n%-40s %14s %14s %9s\n", "allocations", "baseline", "current", "delta")
	var noAllocs []string
	for _, name := range both {
		bv, okB := base[name].work[allocsMetric]
		cv, okC := curr[name].work[allocsMetric]
		if !okB || !okC {
			noAllocs = append(noAllocs, name)
			continue
		}
		delta, mark := "", ""
		if bv > 0 {
			delta = fmt.Sprintf("%.1f%%", (cv-bv)/bv*100)
		}
		// Of a zero-allocation baseline, the allowed fraction is zero.
		if cv > bv*(1+maxRegress) {
			mark = "  ALLOC REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %9s %10s%s\n", name, bv, cv, delta, allocsMetric, mark)
	}
	if len(noAllocs) > 0 {
		fmt.Fprintf(w, "skipped, %s missing from a log: %s\n", allocsMetric, strings.Join(noAllocs, ", "))
	}

	fmt.Fprintf(w, "\n%-40s %14s %14s %14s\n", "work", "baseline", "current", "counter")
	for _, name := range both {
		b, c := base[name], curr[name]
		var skipped []string
		for _, m := range workMetrics {
			bv, okB := b.work[m]
			cv, okC := c.work[m]
			switch {
			case okB && okC:
				mark := ""
				if cv > bv {
					mark = "  WORK INCREASE"
					failed = true
				}
				fmt.Fprintf(w, "%-40s %14.0f %14.0f %14s%s\n", name, bv, cv, m, mark)
			case okB:
				skipped = append(skipped, m+" (missing from current)")
			case okC:
				skipped = append(skipped, m+" (missing from baseline)")
			}
		}
		if len(skipped) > 0 {
			fmt.Fprintf(w, "%-40s skipped: %s\n", name, strings.Join(skipped, ", "))
		}
	}
	return failed
}
