package main

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"time"

	"sramco"
	"sramco/internal/array"
	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/serve"
)

// layerOrder lists the per-layer metrics of the traced run.
var layerOrder = []string{
	"http.overhead_ms",
	"serve.handler_ms.catalog", "serve.handler_ms.hit", "serve.handler_ms.miss", "serve.self_ms",
	"serve.catalog.hit_ratio", "serve.cache.hit_ratio", "serve.coalesced", "serve.response_bytes",
	"catalog.lookup_ns", "catalog.build_s",
	"core.new_framework_s", "core.search_ms.optimize", "core.search_ms.pareto", "core.sweep_ms", "core.presweep_ms",
	"core.evaluated", "core.pruned_bound", "core.skipped", "core.space_points", "core.chunks", "core.bound_eff",
	"array.prepare_ns", "array.prepare_hybrid_ns", "array.clone_ns", "array.clone_bytes",
	"array.evalsweep_ns_per_point", "array.boundrect_ns", "array.evaluations",
	"periph.rail_currents_ns", "device.ids_ns",
	"mc.samples", "mc.sample_ms.snm", "mc.sample_ms.wm", "mc.first_checkpoint_ms",
	"cell.hold_snm_ms", "cell.read_snm_ms", "cell.write_margin_ms",
	"cell.write.trip_probes", "cell.rail.search_probes",
	"circuit.newton.iterations", "circuit.dc.sweep_points", "circuit.tran.steps",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
	"bench.trace_overhead",
}

var layerUnits = map[string]string{
	"serve.catalog.hit_ratio": "fraction", "serve.cache.hit_ratio": "fraction", "serve.coalesced": "count",
	"serve.response_bytes": "B", "catalog.build_s": "s", "core.new_framework_s": "s",
	"core.evaluated": "count", "core.pruned_bound": "count", "core.skipped": "count",
	"core.space_points": "count", "core.chunks": "count", "core.bound_eff": "fraction",
	"array.clone_bytes": "B", "array.evaluations": "count", "mc.samples": "count",
	"cell.write.trip_probes": "count", "cell.rail.search_probes": "count",
	"circuit.newton.iterations": "count", "circuit.dc.sweep_points": "count", "circuit.tran.steps": "count",
	"runtime.gc_cycles": "count", "bench.trace_overhead": "ratio",
}

func unitOf(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	if strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_ns_per_point") {
		return "ns"
	}
	return "ms"
}

// layerMetrics assembles the per-layer metrics from the traced pass (handler
// wrapper, joined spans, counter deltas), the untraced pass (for the tracing
// overhead) and direct calls into the layers at the workload's own inputs.
func layerMetrics(p *plan, chk *checker, base, tr *passResult) (map[string]metric, error) {
	v := map[string]float64{}
	t := tr.trace

	var overhead, selfMS, firstCP []float64
	byTier := map[string][]float64{}
	runMS := map[string][]float64{}
	var sweepMS, presweepMS []float64
	lookups := map[string]float64{}
	var lookupN, bytes float64
	var sampleNS, samples [2]float64 // [snm, wm]
	for i := range p.reqs {
		r, o := &p.reqs[i], &tr.outs[i]
		bytes += float64(o.size)
		if r.kind == "batch" {
			lines, _ := parseBatch(o.body)
			for _, l := range lines {
				lookups[l.Cache]++
				lookupN++
			}
		} else if r.kind != "yieldstream" {
			lookups[o.cache]++
			lookupN++
		}
		if r.kind == "yieldstream" && o.firstLine > 0 {
			firstCP = append(firstCP, ms(o.firstLine-o.sent))
		}
		id := traceID(i)
		h, ok := t.Handlers[id]
		if !ok {
			continue
		}
		hms := float64(h.NS) / 1e6
		overhead = append(overhead, ms(o.done-o.sent)-hms)
		byTier[h.Cache] = append(byTier[h.Cache], hms)
		run := t.Runs[id]
		if run == nil || run.Name == "" {
			continue
		}
		if h.Cache == "miss" || r.kind == "yieldstream" {
			selfMS = append(selfMS, hms-float64(run.NS)/1e6)
		}
		runMS[run.Name] = append(runMS[run.Name], float64(run.NS)/1e6)
		if run.Chunks > 0 {
			sweepMS = append(sweepMS, float64(run.UnionNS)/1e6)
			presweepMS = append(presweepMS, float64(run.SelfNS)/1e6)
		}
		if r.yield != nil {
			k := 0
			if r.yield.Metrics[0] == "wm" {
				k = 1
			}
			sampleNS[k] += float64(run.NS)
			samples[k] += float64(responseSamples(r, o.body))
		}
	}
	v["http.overhead_ms"] = median(overhead)
	for _, tier := range []string{"catalog", "hit", "miss"} {
		v["serve.handler_ms."+tier] = median(byTier[tier])
	}
	v["serve.self_ms"] = median(selfMS)
	v["serve.catalog.hit_ratio"] = lookups["catalog"] / lookupN
	v["serve.cache.hit_ratio"] = lookups["hit"] / lookupN
	v["serve.response_bytes"] = bytes / float64(len(p.reqs))
	v["core.search_ms.optimize"] = median(runMS["core.search"])
	v["core.search_ms.pareto"] = median(runMS["core.search.pareto"])
	v["core.sweep_ms"] = median(sweepMS)
	v["core.presweep_ms"] = median(presweepMS)
	v["mc.first_checkpoint_ms"] = median(firstCP)
	if samples[0] > 0 {
		v["mc.sample_ms.snm"] = sampleNS[0] / 1e6 / samples[0]
	}
	if samples[1] > 0 {
		v["mc.sample_ms.wm"] = sampleNS[1] / 1e6 / samples[1]
	}

	w := tr.work(p)
	for _, k := range []string{"core.evaluated", "core.pruned_bound", "core.skipped", "core.space_points", "core.chunks", "array.evaluations", "mc.samples", "serve.coalesced"} {
		v[k] = float64(w[k])
	}
	if w["core.space_points"] > 0 {
		v["core.bound_eff"] = float64(w["core.pruned_bound"]) / float64(w["core.space_points"])
	}
	if n := w["mc.samples.wm"]; n > 0 {
		v["cell.write.trip_probes"] = float64(w["cell.write.trip_probes"]) / float64(n)
	}
	if n := w["mc.samples.fixed_n"]; n > 0 {
		for _, k := range []string{"circuit.newton.iterations", "circuit.dc.sweep_points", "circuit.tran.steps"} {
			v[k] = float64(w[k]) / float64(n)
		}
	}

	var fwS, catS, rail []float64
	for _, s := range tr.ready.Setups {
		fwS = append(fwS, s.FrameworkS)
		catS = append(catS, s.CatalogS)
		rail = append(rail, float64(s.RailProbes))
	}
	v["core.new_framework_s"] = median(fwS)
	v["catalog.build_s"] = median(catS)
	v["cell.rail.search_probes"] = median(rail)

	v["runtime.gc_cycles"] = float64(tr.after.NumGC - tr.before.NumGC)
	v["runtime.gc_pause_ms"] = float64(tr.after.PauseNS-tr.before.PauseNS) / 1e6
	v["bench.trace_overhead"] = tr.endToEnd(p)["throughput_rps"].Value / base.endToEnd(p)["throughput_rps"].Value

	if err := probeLayers(p, chk.fw, tr, v); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(layerOrder))
	for _, k := range layerOrder {
		out[k] = metric{v[k], unitOf(k)}
	}
	return out, nil
}

// Sinks keep the compiler from discarding the probed calls.
var (
	sinkF   float64
	sinkAny any
)

// timeNS runs f reps times and returns the mean wall time per call in ns.
func timeNS(reps int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps)
}

// optimum is one answered design, the input of the array/periph probes.
type optimum struct {
	flavor sramco.Flavor
	design sramco.Design
	act    sramco.Activity
}

// probeLayers times direct calls into each layer's public functions at the
// workload's own inputs: the optima its searches answered, its catalog
// keys, and the cell bias points its yield runs use. Each figure is the
// median over inputs of the mean per call.
func probeLayers(p *plan, fw *sramco.Framework, tr *passResult, v map[string]float64) error {
	lib := device.Default7nm()
	var models []*device.Model
	for _, pol := range []device.Polarity{device.NFET, device.PFET} {
		for _, fl := range []device.Flavor{device.LVT, device.HVT} {
			models = append(models, lib.Model(pol, fl))
		}
	}
	grid := num.Linspace(0, 0.75, 16)
	v["device.ids_ns"] = timeNS(20, func() {
		for _, m := range models {
			sign := 1.0
			if m.Polarity == device.PFET {
				sign = -1
			}
			for _, vg := range grid {
				for _, vd := range grid {
					sinkF += m.Ids(sign*vg, sign*vd)
				}
			}
		}
	}) / float64(len(models)*len(grid)*len(grid))

	if p.spec.Name == "yield" {
		return probeCell(v)
	}
	if err := probeArray(p, fw, tr, v); err != nil {
		return err
	}
	if p.spec.Catalog {
		cat, err := serve.New(fw, serve.Config{}).BuildCatalog(context.Background(), serve.DefaultCatalogGrid())
		if err != nil {
			return err
		}
		keys := cat.Keys()
		v["catalog.lookup_ns"] = timeNS(200, func() {
			for _, k := range keys {
				b, _ := cat.Lookup(k)
				sinkF += float64(len(b))
			}
		}) / float64(len(keys))
	}
	return nil
}

func probeArray(p *plan, fw *sramco.Framework, tr *passResult, v map[string]float64) error {
	var opts []optimum
	for i := range p.reqs {
		o := &tr.outs[i]
		if p.reqs[i].kind != "optimize" || o.status != 200 {
			continue
		}
		var resp serve.OptimizeResponse
		if json.Unmarshal(o.body, &resp) != nil {
			continue
		}
		fl, err := sramco.ParseFlavor(resp.Request.Flavor)
		if err != nil {
			continue
		}
		opts = append(opts, optimum{fl, resp.Design, sramco.Activity{Alpha: *resp.Request.Alpha, Beta: *resp.Request.Beta}})
	}
	// At most 64 inputs, spread evenly over the run.
	if n := len(opts); n > 64 {
		picked := make([]optimum, 64)
		for k := range picked {
			picked[k] = opts[k*n/64]
		}
		opts = picked
	}
	space := sramco.DefaultSearchSpace()
	var prep, prepH, clone, cloneB, sweep, bound, rails []float64
	var blk array.SweepBlock
	for _, op := range opts {
		tech, err := fw.Core().ArrayTech(op.flavor)
		if err != nil {
			return err
		}
		ev, err := array.NewEvaluator(tech, op.act)
		if err != nil {
			return err
		}
		d := op.design
		g := d.Geom
		if d.Groups == 0 {
			const reps = 64
			clones := make([]*array.Evaluator, reps)
			for k := range clones {
				clones[k] = ev.Clone()
			}
			k := 0
			var perr error
			prep = append(prep, timeNS(reps, func() {
				if err := clones[k].Prepare(g, d.VDDC, d.VSSC, d.VWL); err != nil {
					perr = err
				}
				k++
			}))
			if perr != nil {
				return perr
			}
			if err := ev.Prepare(g, d.VDDC, d.VSSC, d.VWL); err != nil {
				return err
			}
		} else {
			alt, err := fw.Core().HybridAltTerms(op.flavor)
			if err != nil {
				return err
			}
			h := array.Hybrid{Groups: d.Groups, Mask: d.GroupMask, Alt: alt}
			var perr error
			prepH = append(prepH, timeNS(16, func() {
				if err := ev.PrepareHybrid(g, d.VDDC, d.VSSC, d.VWL, h); err != nil {
					perr = err
				}
			}))
			if perr != nil {
				return perr
			}
		}
		var serr error
		sweep = append(sweep, timeNS(64, func() {
			if err := ev.EvalSweep(g.Npre, 1, space.NwrMax, &blk); err != nil {
				serr = err
			}
		})/float64(space.NwrMax))
		bound = append(bound, timeNS(64, func() {
			b, err := ev.BoundRect(1, space.NpreMax, 1, space.NwrMax)
			if err != nil {
				serr = err
			}
			sinkAny = b
		}))
		if serr != nil {
			return serr
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		clone = append(clone, timeNS(64, func() { sinkAny = ev.Clone() }))
		runtime.ReadMemStats(&m1)
		cloneB = append(cloneB, float64(m1.TotalAlloc-m0.TotalAlloc)/64)
		pt := fw.Core().Periph
		rails = append(rails, timeNS(256, func() {
			sinkF += pt.ICVDD(d.VDDC) + pt.ICVSS(d.VSSC) + pt.IWL(d.VWL)
		}))
	}
	v["array.prepare_ns"] = median(prep)
	v["array.prepare_hybrid_ns"] = median(prepH)
	v["array.clone_ns"] = median(clone)
	v["array.clone_bytes"] = median(cloneB)
	v["array.evalsweep_ns_per_point"] = median(sweep)
	v["array.boundrect_ns"] = median(bound)
	v["periph.rail_currents_ns"] = median(rails)
	return nil
}

// probeCell times the per-worker scratch characterization the MC engine
// runs per sample, at nominal bias with zero variation, for both flavors.
func probeCell(v map[string]float64) error {
	var hold, read, write []float64
	var zero cell.Variation
	for _, fl := range []device.Flavor{device.LVT, device.HVT} {
		scr, err := cell.NewScratch(cell.New(fl))
		if err != nil {
			return err
		}
		var cerr error
		for k := 0; k < 5; k++ {
			hold = append(hold, timeNS(1, func() {
				s, err := scr.HoldSNM(zero, device.Vdd)
				sinkF, cerr = s, errors.Join(cerr, err)
			})/1e6)
			read = append(read, timeNS(1, func() {
				s, err := scr.ReadSNM(zero, cell.NominalRead(device.Vdd))
				sinkF, cerr = s, errors.Join(cerr, err)
			})/1e6)
		}
		for k := 0; k < 3; k++ {
			write = append(write, timeNS(1, func() {
				s, err := scr.WriteMargin(zero, cell.NominalWrite(device.Vdd))
				sinkF, cerr = s, errors.Join(cerr, err)
			})/1e6)
		}
		if cerr != nil {
			return cerr
		}
	}
	v["cell.hold_snm_ms"] = median(hold)
	v["cell.read_snm_ms"] = median(read)
	v["cell.write_margin_ms"] = median(write)
	return nil
}
