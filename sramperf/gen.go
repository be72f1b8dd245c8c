package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"sramco/internal/serve"
)

//go:embed workloads.json
var specJSON []byte

// benchSpec is the embedded workloads.json.
type benchSpec struct {
	BaselineSeed int64          `json:"baseline_seed"`
	HeldOutSeed  int64          `json:"held_out_seed"`
	Setups       int            `json:"setups_per_run"`
	Workloads    []workloadSpec `json:"workloads"`
}

// workloadSpec is one traffic mix: how it is driven and what the server
// loads at setup. Every workload is a closed loop of Clients clients.
type workloadSpec struct {
	Name         string  `json:"name"`
	Clients      int     `json:"clients"`
	Mode         string  `json:"mode"` // "paper" or "simulated"
	Catalog      bool    `json:"catalog"`
	BlockSeconds float64 `json:"block_seconds"`
	// TailPercentile records the percentile latency_tail_ms reports at the
	// benchmark's run length (the tail rule picks it from the count).
	TailPercentile int `json:"tail_percentile"`
}

// cold reports whether every request of the workload must be a live fill.
func (w workloadSpec) cold() bool { return w.Name != "serve-hot" }

func loadSpec() (benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("workloads.json: %w", err)
	}
	return s, nil
}

func (s benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// request is one generated HTTP call plus the decoded form the output
// checks need.
type request struct {
	kind string // optimize | pareto | evaluate | batch | yield | yieldstream
	path string
	body []byte
	key  string // canonical cache key of a single-item request

	opt   *serve.OptimizeRequest
	eval  *serve.EvaluateRequest
	yield *serve.YieldRequest
	batch []batchItem
}

type batchItem struct {
	op   string
	opt  *serve.OptimizeRequest
	eval *serve.EvaluateRequest
}

// plan is the full, seed-determined request sequence of one run.
type plan struct {
	spec   workloadSpec
	warmup []request
	reqs   []request
	// segLen is the block length: the run is sent and measured block by
	// block.
	segLen int
}

// newPlan generates the warmup and measured requests of a run: whole blocks
// (every block holds the same mix of cost classes, so the load does not
// depend on where a run stops), round(seconds / block_seconds) of them.
// Cold warmup requests never share a cache key with measured ones.
func newPlan(w workloadSpec, seed int64, seconds int) (*plan, error) {
	p := &plan{spec: w}
	blocks := int(math.Max(1, math.Round(float64(seconds)/w.BlockSeconds)))
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	warm := rand.New(rand.NewPCG(uint64(seed), 0x3a3a))
	seen := map[string]bool{}
	var block func(*rand.Rand, map[string]bool) []request
	switch w.Name {
	case "search-plain":
		p.warmup = searchPlainWarmup(warm, seen)
		block = searchPlainBlock
	case "search-hybrid":
		p.warmup = searchHybridWarmup(warm, seen)
		block = searchHybridBlock
	case "yield":
		p.warmup = yieldBlock(warm, seen, 2)
		block = func(r *rand.Rand, seen map[string]bool) []request { return yieldBlock(r, seen, 0) }
	case "serve-hot":
		u := newHotUniverse(rand.New(rand.NewPCG(uint64(seed), 0x1111)))
		p.warmup = u.requests(warm, 4*hotBlockLen)
		block = func(r *rand.Rand, _ map[string]bool) []request { return u.requests(r, hotBlockLen) }
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	for b := 0; b < blocks; b++ {
		blk := block(r, seen)
		p.segLen = len(blk)
		p.reqs = append(p.reqs, blk...)
	}
	return p, nil
}

// latWindow is how many requests each latency percentile is taken over: a
// block, when a block holds enough requests for a p95, else the whole run.
// The median over blocks of each block's percentile keeps a few blocks that
// host CPU steal slowed from setting the run's figure.
func (p *plan) latWindow() int {
	if p.segLen >= minLatWindow {
		return p.segLen
	}
	return len(p.reqs)
}

const minLatWindow = 200

// Activity factors are drawn on a 1e-4 grid: α and β move the optimum and
// with it how much the bound prunes, so cold requests draw them from a band
// narrow enough to keep each cell's cost steady (hybrid cells are the most
// sensitive), and warmup requests from a disjoint band, so no key collides.
type activityBand struct{ lo, n int } // values (lo + [0, n)) / 1e4

var (
	plainBand  = activityBand{2500, 5001} // [0.25, 0.75]
	hybridBand = activityBand{4500, 1001} // [0.45, 0.55]
	warmBand   = activityBand{9600, 301}  // [0.96, 0.99]
)

func (b activityBand) draw(r *rand.Rand) *float64 {
	return ptr(float64(b.lo+r.IntN(b.n)) / 10000)
}

func ptr[T any](v T) *T { return &v }

var (
	plainCapsKB  = []int{1, 2, 4, 8, 16, 32, 64}
	methods      = []string{"m1", "m2"}
	objectives   = []string{"edp", "delay", "energy", "area", "padp"}
	flavors      = []string{"lvt", "hvt"}
	widths       = []int{32, 64, 128}
	hybridCapsKB = []int{4, 8, 16}
)

// optKey mirrors the server's canonical optimize/pareto key for the fully
// spelled-out requests the cold generators emit.
func optKey(endpoint string, o *serve.OptimizeRequest) string {
	return fmt.Sprintf("%s|cap=%d|flavor=%s|method=%s|obj=%s|dwl=%t|alpha=%g|beta=%g|w=%d|groups=%d|mux=%d",
		endpoint, o.CapacityBytes, o.Flavor, o.Method, o.Objective, o.DWL, *o.Alpha, *o.Beta, o.W, o.Groups, o.Mux)
}

// coldOpt draws the per-request free parameters of one optimize/pareto cell
// — α, β, and flavor and W unless the cell fixes them — until its canonical
// key is new.
func coldOpt(r *rand.Rand, seen map[string]bool, endpoint string, cell serve.OptimizeRequest, band activityBand) request {
	for {
		o := cell
		if o.Flavor == "" {
			o.Flavor = flavors[r.IntN(2)]
		}
		if o.W == 0 {
			o.W = widths[r.IntN(len(widths))]
		}
		o.Alpha, o.Beta = band.draw(r), band.draw(r)
		k := optKey(endpoint, &o)
		if seen[k] {
			continue
		}
		seen[k] = true
		body, _ := json.Marshal(o)
		return request{kind: endpoint, path: "/v1/" + endpoint, body: body, key: k, opt: &o}
	}
}

// searchPlainBlock is one block of search-plain: every (capacity, method,
// DWL, mux, objective) optimize cell and every (capacity, method, DWL, mux)
// pareto cell, m1 cells once and m2 cells twice, in seeded order. The six
// requests of one round of a (capacity, method, DWL, mux) cell take the six
// (W, flavor) pairs, matched to them by a seeded permutation. Method, DWL,
// mux, capacity, W and flavor set the cost of a search, so each block
// carries the same cost mix. An m1 search takes about a third of an m2
// search; at equal shares the median request would sit on the gap between
// the two, where it jumps with the mix, while at two m2 requests per m1
// request it sits inside the m2 searches.
func searchPlainBlock(r *rand.Rand, seen map[string]bool) []request {
	var out []request
	for _, kb := range plainCapsKB {
		for _, m := range []string{"m1", "m2", "m2"} {
			for _, dwl := range []bool{false, true} {
				for _, mux := range []int{0, 2, 4} {
					perm := r.Perm(len(widths) * len(flavors))
					for i, obj := range append(append([]string(nil), objectives...), "pareto") {
						wf := perm[i]
						o := serve.OptimizeRequest{
							CapacityBytes: kb << 10, Method: m, DWL: dwl, Mux: mux, Objective: obj,
							W: widths[wf%len(widths)], Flavor: flavors[wf/len(widths)],
						}
						endpoint := "optimize"
						if obj == "pareto" {
							endpoint, o.Objective = "pareto", "edp"
						}
						out = append(out, coldOpt(r, seen, endpoint, o, plainBand))
					}
				}
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func searchPlainWarmup(r *rand.Rand, seen map[string]bool) []request {
	var out []request
	for _, kb := range []int{1, 16} {
		for _, m := range methods {
			for _, obj := range objectives {
				o := serve.OptimizeRequest{CapacityBytes: kb << 10, Method: m, Objective: obj}
				out = append(out, coldOpt(r, seen, "optimize", o, warmBand))
			}
			o := serve.OptimizeRequest{CapacityBytes: kb << 10, Method: m, Objective: "edp"}
			out = append(out, coldOpt(r, seen, "pareto", o, warmBand))
		}
	}
	return out
}

// searchHybridBlock is one block of search-hybrid: per (capacity, groups,
// mux) cell one edp and one padp request, one of them on each flavor (the
// pairing drawn per block), in seeded order. The cost of a hybrid search
// spans three orders of magnitude across these cells, so each is its own
// stratum; W stays at its default because the row organizations it admits
// change the cost as much again.
func searchHybridBlock(r *rand.Rand, seen map[string]bool) []request {
	var out []request
	for _, kb := range hybridCapsKB {
		for _, g := range []int{2, 4, 8} {
			for _, mux := range []int{0, 4} {
				swap := r.IntN(2)
				for i, obj := range []string{"edp", "padp"} {
					o := serve.OptimizeRequest{CapacityBytes: kb << 10, Flavor: flavors[i^swap], Method: "m2", Objective: obj, Groups: g, Mux: mux, W: 64}
					out = append(out, coldOpt(r, seen, "optimize", o, hybridBand))
				}
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func searchHybridWarmup(r *rand.Rand, seen map[string]bool) []request {
	var out []request
	for _, g := range []int{2, 4} {
		o := serve.OptimizeRequest{CapacityBytes: 16 << 10, Method: "m2", Objective: "edp", Groups: g}
		out = append(out, coldOpt(r, seen, "optimize", o, warmBand))
	}
	return out
}

func yieldKey(y *serve.YieldRequest) string {
	return fmt.Sprintf("yield|flavor=%s|n=%d|seed=%d|metrics=%s|sampler=%s|relci=%g",
		y.Flavor, y.N, y.Seed, strings.Join(y.Metrics, ","), y.Sampler, y.RelCI)
}

// yieldBlock is one block of the yield workload: per flavor, a fixed-N plain
// MC run over hold/read SNM, a Sobol or LHS checkpoint stream over hold SNM
// that stops early at a 10% relative CI, and a small fixed-N write-margin
// run. SNM (DC sweeps) and write trip (transients) each take a large share
// of the time. n > 0 shrinks every run to n samples (warmup). Measured MC
// seeds are positive and warmup seeds negative, so keys never collide.
func yieldBlock(r *rand.Rand, seen map[string]bool, n int) []request {
	size := func(def int) int {
		if n > 0 {
			return n
		}
		return def
	}
	var out []request
	for _, fl := range flavors {
		kinds := []serve.YieldRequest{
			{Flavor: fl, N: size(16), Metrics: []string{"hsnm", "rsnm"}, Sampler: "mc"},
			{Flavor: fl, N: size(96), Metrics: []string{"hsnm"}, Sampler: []string{"sobol", "lhs"}[r.IntN(2)], RelCI: 0.1},
			{Flavor: fl, N: size(4), Metrics: []string{"wm"}, Sampler: "mc"},
		}
		for _, y := range kinds {
			for {
				y.Seed = 1 + r.Int64N(1<<40)
				if n > 0 {
					y.Seed = -y.Seed
				}
				if k := yieldKey(&y); !seen[k] {
					seen[k] = true
					break
				}
			}
			body, _ := json.Marshal(y)
			req := request{kind: "yield", path: "/v1/yield", body: body, key: yieldKey(&y), yield: &y}
			if y.RelCI > 0 {
				req.kind, req.path = "yieldstream", "/v1/yield?stream=1"
			}
			out = append(out, req)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotUniverse is the key space of serve-hot: the catalog grid cells and a
// fixed set of evaluate points about four times the LRU's 256 entries, drawn
// by Zipf popularity so hits, fills and evictions all happen.
type hotUniverse struct {
	catOpt    []serve.OptimizeRequest
	catPareto []serve.OptimizeRequest
	evals     []serve.EvaluateRequest
}

const (
	hotEvalKeys = 1024
	hotBlockLen = 512
)

func newHotUniverse(r *rand.Rand) *hotUniverse {
	u := &hotUniverse{}
	grid := serve.DefaultCatalogGrid()
	for _, c := range grid.CapacitiesBytes {
		for _, fl := range grid.Flavors {
			for _, m := range grid.Methods {
				for _, obj := range grid.Objectives {
					u.catOpt = append(u.catOpt, serve.OptimizeRequest{CapacityBytes: c, Flavor: fl, Method: m, Objective: obj})
				}
				u.catPareto = append(u.catPareto, serve.OptimizeRequest{CapacityBytes: c, Flavor: fl, Method: m})
			}
		}
	}
	seen := map[serve.EvaluateRequest]bool{}
	for len(u.evals) < hotEvalKeys {
		bits := (1 << (r.IntN(5))) * 8192 // 1–16 KB
		nr := 1 << (4 + r.IntN(5))        // 16–256 rows
		e := serve.EvaluateRequest{
			Flavor: flavors[r.IntN(2)], Method: methods[r.IntN(2)],
			NR: nr, NC: bits / nr, Npre: 1 + r.IntN(50), Nwr: 1 + r.IntN(20),
		}
		if e.NC < 64 || e.NC > 1024 || seen[e] {
			continue
		}
		seen[e] = true
		u.evals = append(u.evals, e)
	}
	r.Shuffle(len(u.evals), func(i, j int) { u.evals[i], u.evals[j] = u.evals[j], u.evals[i] })
	return u
}

// spell renders a catalog request in one of the equivalent spellings the
// server canonicalizes onto the same key (case, explicit defaults).
func spell(r *rand.Rand, o serve.OptimizeRequest) serve.OptimizeRequest {
	switch r.IntN(3) {
	case 1:
		o.Flavor, o.Method = strings.ToUpper(o.Flavor), strings.ToUpper(o.Method)
	case 2:
		o.Alpha, o.Beta, o.W = ptr(0.5), ptr(0.5), 64
	}
	return o
}

// requests draws n serve-hot requests: 40% catalog optimize, 10% catalog
// pareto, 40% Zipf-popular evaluate, 10% small batches mixing both.
func (u *hotUniverse) requests(r *rand.Rand, n int) []request {
	zipf := rand.NewZipf(r, 1.1, 1, hotEvalKeys-1)
	eval := func() *serve.EvaluateRequest {
		e := u.evals[zipf.Uint64()]
		return &e
	}
	catOpt := func() *serve.OptimizeRequest {
		o := spell(r, u.catOpt[r.IntN(len(u.catOpt))])
		return &o
	}
	out := make([]request, 0, n)
	for len(out) < n {
		switch x := r.IntN(10); {
		case x < 4:
			o := catOpt()
			body, _ := json.Marshal(o)
			out = append(out, request{kind: "optimize", path: "/v1/optimize", body: body, opt: o})
		case x < 5:
			o := spell(r, u.catPareto[r.IntN(len(u.catPareto))])
			body, _ := json.Marshal(o)
			out = append(out, request{kind: "pareto", path: "/v1/pareto", body: body, opt: &o})
		case x < 9:
			e := eval()
			body, _ := json.Marshal(e)
			out = append(out, request{kind: "evaluate", path: "/v1/evaluate", body: body, eval: e})
		default:
			var b strings.Builder
			var items []batchItem
			for k := 2 + r.IntN(3); k > 0; k-- {
				var line []byte
				if r.IntN(2) == 0 {
					it := batchItem{op: "optimize", opt: catOpt()}
					line, _ = json.Marshal(struct {
						Op string `json:"op"`
						*serve.OptimizeRequest
					}{"optimize", it.opt})
					items = append(items, it)
				} else {
					it := batchItem{op: "evaluate", eval: eval()}
					line, _ = json.Marshal(struct {
						Op string `json:"op"`
						*serve.EvaluateRequest
					}{"evaluate", it.eval})
					items = append(items, it)
				}
				b.Write(line)
				b.WriteByte('\n')
			}
			out = append(out, request{kind: "batch", path: "/v1/batch", body: []byte(b.String()), batch: items})
		}
	}
	return out
}
