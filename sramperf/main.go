// Command sramperf is the end-to-end benchmark of sramd. For one workload it
// starts sramd's real handler (serve.New(fw, cfg).Handler() with sramd's
// default serve.Config, access log off) in a fresh server process on a
// loopback listener, drives the workload's seeded requests at it over HTTP,
// checks every response, and prints the end-to-end metrics. With --trace 1
// it repeats the run against a second, traced server process and prints the
// per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash sramperf/run.sh --workload search-plain --seed 1 --seconds 16 --trace 0
//
// Workloads: search-plain, search-hybrid, serve-hot, yield (workloads.json
// records their loop type, clients, rate and why each was chosen). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sramco"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sramperf: %v\n", err)
		return 1
	}
	fs := flag.NewFlagSet("sramperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (search-plain, search-hybrid, serve-hot, yield)")
	seed := fs.Int64("seed", spec.BaselineSeed, "seed of the generated requests (held-out seed for confirming claims: "+fmt.Sprint(spec.HeldOutSeed)+")")
	seconds := fs.Int("seconds", 16, "length of the measured run in seconds")
	trace := fs.Int("trace", 0, "1: run traced and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := bench(spec, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "sramperf: %v\n", err)
		return 1
	}
	return 0
}

func bench(spec benchSpec, name string, seed int64, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1, got %d and %d", seconds, trace)
	}
	w, ok := spec.workload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	p, err := newPlan(w, seed, seconds)
	if err != nil {
		return err
	}
	chk, err := newChecker(w)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d: %d requests in blocks of %d, closed loop, %d client(s)\n", w.Name, seed, len(p.reqs), p.segLen, w.Clients)

	base, err := runPass(p, chk, false)
	if err != nil {
		return err
	}
	printPass("untraced", p, base)
	res := result{Correct: base.correct(), Attempted: len(p.reqs), Failed: base.failed}
	if trace == 0 {
		res.Metrics = base.endToEnd(p)
		printMetrics(res.Metrics, endToEndOrder)
		fmt.Printf("  latency_tail_ms is p%d of %d samples (median over %d windows)\n",
			tailPercentile(p.latWindow()), p.latWindow(), len(p.reqs)/p.latWindow())
		fmt.Printf("  error_rate       %.4g fraction (%d of %d failed)\n", base.errorRate(p), base.failed, len(p.reqs))
	} else {
		tr, err := runPass(p, chk, true)
		if err != nil {
			return err
		}
		printPass("traced", p, tr)
		res.Correct = res.Correct && tr.correct()
		res.Attempted += len(p.reqs)
		res.Failed += tr.failed
		if res.Metrics, err = layerMetrics(p, chk, base, tr); err != nil {
			return err
		}
		printMetrics(res.Metrics, layerOrder)
		printSpans(tr.trace)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is one run of the workload against one server process.
type passResult struct {
	outs          []outcome
	wall          time.Duration
	ready         readyMsg
	before, after statsMsg
	segs          []segment
	streamWork    map[string]int64 // counter deltas of early-stopping MC streams
	trace         *traceMsg

	failed   int
	failures []string
	invalid  bool // a run-level check failed (golden rows not covered)
	digest   string
}

// runPass starts a server process, warms it up, runs the measured requests,
// snapshots the server's resource use around them, stops the server and
// checks every response.
func runPass(p *plan, chk *checker, traced bool) (*passResult, error) {
	c, err := startChild(p.spec, traced)
	if err != nil {
		return nil, err
	}
	pr, err := drive(c, p, traced)
	if err != nil {
		c.kill()
		return nil, err
	}
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("server process: %w", err)
	}
	pr.ready = c.ready
	pr.verify(p, chk)
	return pr, nil
}

// genHeapLimit caps the generator's heap while its collector is off during
// the measured blocks (see drive).
const genHeapLimit = 256 << 20

// collectBetweenBlocks runs the generator's collector before a block once
// its heap has reached half of genHeapLimit, so the limit never forces a
// collection inside a block.
func collectBetweenBlocks() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > genHeapLimit/2 {
		runtime.GC()
	}
}

func drive(c *child, p *plan, traced bool) (*passResult, error) {
	conns := p.spec.Clients
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	url := "http://" + c.ready.Addr

	keep := keepAll
	if !p.spec.cold() {
		keep = keepFirst()
	}
	warm, _ := closedLoop(p.warmup, conns, httpSender(client, url, false, keepAll))
	for i := range warm {
		if o := &warm[i]; o.err != nil || o.status != 200 {
			return nil, fmt.Errorf("warmup request %s failed: status %d, %v: %.200s", p.warmup[i].body, o.status, o.err, o.body)
		}
	}

	pr := &passResult{streamWork: map[string]int64{}}
	do := httpSender(client, url, traced, keep)
	var snapErr error
	if p.spec.Name == "yield" {
		// An MC stream that stops early finishes the blocks its workers had
		// already claimed, and how many depends on scheduling. Its solver
		// work is counted apart so the exact counts cover fixed-N runs only.
		inner := do
		do = func(i int, r *request) outcome {
			if r.kind != "yieldstream" {
				return inner(i, r)
			}
			c0, err0 := c.counters()
			o := inner(i, r)
			c1, err1 := c.counters()
			if err := errors.Join(err0, err1); err != nil {
				snapErr = err
			}
			for k, v := range c1 {
				pr.streamWork[k] += v - c0[k]
			}
			return o
		}
	}
	// The run goes block by block with a resource snapshot between blocks.
	segLen := p.segLen
	pr.outs = make([]outcome, len(p.reqs))
	// The generator's garbage is collected between blocks, not while it
	// times requests: a collection would take CPU from the server and stall
	// requests for the benchmark's sake.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(genHeapLimit))
	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(p.reqs); lo += segLen {
		hi := min(lo+segLen, len(p.reqs))
		collectBetweenBlocks()
		outs, wall := closedLoop(p.reqs[lo:hi], conns, func(i int, r *request) outcome { return do(lo+i, r) })
		if snapErr != nil {
			return nil, snapErr
		}
		after, err := c.stats()
		if err != nil {
			return nil, err
		}
		copy(pr.outs[lo:], outs)
		pr.wall += wall
		pr.segs = append(pr.segs, segment{lo: lo, hi: hi, wall: wall, before: before, after: after})
		before = after
	}
	pr.before, pr.after = pr.segs[0].before, before
	if traced {
		pr.trace = &traceMsg{}
		if err := c.call("trace", pr.trace); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// verify checks every response, applies the workload guards and computes
// the response digest.
func (pr *passResult) verify(p *plan, chk *checker) {
	fail := func(format string, args ...any) {
		if len(pr.failures) < 5 {
			pr.failures = append(pr.failures, fmt.Sprintf(format, args...))
		}
	}
	cold := p.spec.cold()
	for i := range p.reqs {
		o := &pr.outs[i]
		err := chk.check(&p.reqs[i], o)
		if err == nil && cold && (o.cache == "hit" || o.cache == "catalog" || o.cache == "coalesced") {
			err = fmt.Errorf("cold workload answered from tier %q", o.cache)
		}
		if err != nil {
			pr.failed++
			fail("request %d %s %s: %v", i, p.reqs[i].path, p.reqs[i].body, err)
		}
	}
	if chk.golden != nil && len(chk.matched) != len(chk.golden) {
		fail("only %d of %d golden rows were answered and matched", len(chk.matched), len(chk.golden))
		pr.invalid = true
	}
	pr.digest = digest(p.reqs, pr.outs)
}

func (pr *passResult) correct() bool { return pr.failed == 0 && !pr.invalid }

func (pr *passResult) errorRate(p *plan) float64 { return float64(pr.failed) / float64(len(p.reqs)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var endToEndOrder = []string{"throughput_rps", "latency_p50_ms", "latency_tail_ms", "setup_s", "cpu_ms_per_op", "alloc_mb_per_op", "max_rss_mb"}

// segment is one block with the server's resource snapshots around it.
type segment struct {
	lo, hi        int
	wall          time.Duration
	before, after statsMsg
}

// endToEnd computes the workload's end-to-end metrics. Throughput, CPU and
// allocation per request are medians over the blocks, so a burst of outside
// load that slows one block moves them little. Latency percentiles are taken
// per latency window (see latWindow) and the median over windows is
// reported. error_rate is the result line's failed/attempted; it is 0 on a
// correct run, so it is not a bounded metric.
func (pr *passResult) endToEnd(p *plan) map[string]metric {
	n := len(pr.outs)
	lat := make([]float64, n)
	for i := range pr.outs {
		lat[i] = ms(pr.outs[i].latency())
	}
	w := p.latWindow()
	if w <= 0 || w > n {
		w = n
	}
	tail := float64(tailPercentile(w)) / 100
	var p50s, tails, thr, cpu, alloc []float64
	for lo := 0; lo < n; lo += w {
		s := sortedCopy(lat[lo:min(lo+w, n)])
		p50s = append(p50s, quantile(s, 0.5))
		tails = append(tails, quantile(s, tail))
	}
	for _, s := range pr.segs {
		k := float64(s.hi - s.lo)
		thr = append(thr, k/s.wall.Seconds())
		cpu = append(cpu, float64(s.after.CPUNS-s.before.CPUNS)/1e6/k)
		alloc = append(alloc, float64(s.after.TotalAlloc-s.before.TotalAlloc)/1e6/k)
	}
	setups := make([]float64, len(pr.ready.Setups))
	for i, s := range pr.ready.Setups {
		setups[i] = s.TotalS
	}
	return map[string]metric{
		"throughput_rps":  {median(thr), "req/s"},
		"latency_p50_ms":  {median(p50s), "ms"},
		"latency_tail_ms": {median(tails), "ms"},
		"setup_s":         {median(setups), "s"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"alloc_mb_per_op": {median(alloc), "MB"},
		"max_rss_mb":      {float64(pr.after.HWMKB) * 1024 / 1e6, "MB"},
	}
}

// work sums the exact work counts of a pass: search statistics of live
// fills, MC samples answered, and solver counters of fixed-N runs.
func (pr *passResult) work(p *plan) map[string]int64 {
	w := map[string]int64{}
	for i := range p.reqs {
		o := &pr.outs[i]
		if o.status != 200 {
			continue
		}
		switch p.reqs[i].kind {
		case "optimize", "pareto":
			if o.cache != "miss" {
				continue
			}
			var b struct {
				Stats sramco.SearchStats `json:"search_stats"`
			}
			if json.Unmarshal(o.body, &b) == nil {
				s := b.Stats
				w["core.evaluated"] += int64(s.Evaluated)
				w["core.pruned_bound"] += int64(s.PrunedBound)
				w["core.skipped"] += int64(s.SkippedTotal())
				w["core.space_points"] += int64(s.Evaluated + s.SkippedRSNM + s.PrunedBound)
				w["core.chunks"] += int64(s.Chunks)
			}
		case "yield", "yieldstream":
			n := responseSamples(&p.reqs[i], o.body)
			w["mc.samples"] += int64(n)
			if p.reqs[i].kind == "yield" {
				w["mc.samples.fixed_n"] += int64(n)
				if p.reqs[i].yield.Metrics[0] == "wm" {
					w["mc.samples.wm"] += int64(n)
				}
			}
		}
	}
	for _, k := range []string{"array.evaluations", "circuit.newton.iterations", "circuit.dc.sweep_points", "circuit.tran.steps", "cell.write.trip_probes", "serve.coalesced"} {
		w[k] = pr.after.Counters[k] - pr.before.Counters[k] - pr.streamWork[k]
	}
	return w
}

// responseSamples is the number of MC samples a yield answer reports (the
// final checkpoint's count for a stream).
func responseSamples(r *request, body []byte) int {
	var v struct {
		Samples int `json:"samples"`
	}
	if r.kind == "yieldstream" {
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		body = []byte(lines[len(lines)-1])
	}
	if json.Unmarshal(body, &v) != nil {
		return 0
	}
	return v.Samples
}

var workOrder = []string{"core.evaluated", "core.pruned_bound", "core.space_points", "mc.samples", "circuit.newton.iterations", "circuit.tran.steps", "cell.write.trip_probes"}

func printPass(label string, p *plan, pr *passResult) {
	fmt.Printf("%s pass: %d requests in %.3f s, %d failed\n", label, len(pr.outs), pr.wall.Seconds(), pr.failed)
	for _, f := range pr.failures {
		fmt.Printf("  FAIL %s\n", f)
	}
	if p.spec.cold() {
		w := pr.work(p)
		var parts []string
		for _, k := range workOrder {
			parts = append(parts, fmt.Sprintf("%s=%d", k, w[k]))
		}
		fmt.Printf("  work (exact): %s\n", strings.Join(parts, " "))
		// A search materializes each point that beats its worker's running
		// best through one more evaluation, and which points those are
		// depends on how chunks were spread over the workers.
		fmt.Printf("  work (scheduling-dependent): array.evaluations=%d\n", w["array.evaluations"])
	}
	fmt.Printf("  digest: %s\n", pr.digest)
}

func printMetrics(m map[string]metric, order []string) {
	for _, k := range order {
		v := m[k]
		fmt.Printf("  %-30s %14.6g %s\n", k, v.Value, v.Unit)
	}
}

func printSpans(t *traceMsg) {
	names := make([]string, 0, len(t.Spans))
	for k := range t.Spans {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := t.Spans[k]
		fmt.Printf("  span %-24s n=%-9d mean %.4g ms\n", k, a.N, float64(a.NS)/float64(a.N)/1e6)
	}
}
