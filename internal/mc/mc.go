// Package mc implements Monte Carlo yield analysis of the 6T SRAM cell
// under random threshold-voltage variation — the analysis the paper uses
// (§2, §4) to justify the noise-margin constraint δ = 0.35·Vdd and the
// μ−kσ yield formulation.
//
// Each sample draws a ΔVt for each of the six cell transistors (random
// dopant/work-function fluctuation of a single fin) and re-characterizes the
// margins with the circuit simulator through a per-worker scratch path that
// reuses netlists and Newton workspaces across samples. Draws come from
// plain Monte Carlo, scrambled Sobol', or Latin-hypercube sequences
// (Config.Sampler), optionally tilted toward the distribution tail with
// exact importance weights (Config.Tilt). Sampling is deterministic for a
// given seed, independent of parallel scheduling.
//
// RunContext evaluates a fixed N; RunStream additionally maintains streaming
// Welford statistics with confidence intervals on μ−3σ and the fail
// fraction, emitting checkpoints and stopping early once a requested
// relative CI is met.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// Monte Carlo run metrics: total/done counts drive progress tickers; the
// histogram records per-sample wall time. Sample counts are deterministic
// for a given Config regardless of GOMAXPROCS, with one bounded exception:
// an early-stop stream whose checkpoints lie fewer than streamWindow blocks
// apart may compute up to streamWindow − cpBlocks blocks past the checkpoint
// that stops it, so its mc.samples.done can exceed the samples it merges by
// a scheduling-dependent amount. Every other early-stop run computes exactly
// the samples it merges.
// mc.samples.total is the number of samples belonging to runs currently in
// flight — each run adds its N on entry and subtracts it on exit, so
// concurrent runs compose instead of clobbering each other.
// mc.samples.writefail counts samples whose write margin was ≤ 0 (a
// legitimate fail draw, not a solver error).
var (
	mRuns         = obs.NewCounter("mc.runs")
	mSamplesDone  = obs.NewCounter("mc.samples.done")
	mSampleFails  = obs.NewCounter("mc.samples.errors")
	mWriteFails   = obs.NewCounter("mc.samples.writefail")
	gSamplesTotal = obs.NewGauge("mc.samples.total")
	hSampleDur    = obs.NewHistogram("mc.sample_duration")
)

// writeMarginFn is a test seam over the write-margin evaluation: the package
// tests swap it in to gate samples and to inject infrastructure errors that
// the real simulator cannot be made to produce deterministically. When nil
// (the default) samples go through the reusable scratch path.
var writeMarginFn func(*cell.Cell, cell.WriteBias) (float64, error)

// DefaultSigmaVt is the per-device threshold σ (V) for a single 7 nm fin;
// single-fin devices maximize variability, which is why the paper requires
// margins ≥ 35% of Vdd.
const DefaultSigmaVt = 0.025

// MaxTilt bounds the importance-sampling σ inflation. Beyond this the
// weight spread makes the effective sample size collapse faster than the
// tail coverage helps.
const MaxTilt = 8.0

// Metric selects which margins a run computes.
type Metric int

const (
	HSNM       Metric = 1 << iota // hold static noise margin
	RSNM                          // read static noise margin
	WM                            // write margin
	AllMetrics = HSNM | RSNM | WM
)

// Config describes one Monte Carlo experiment.
type Config struct {
	Flavor  device.Flavor
	SigmaVt float64 // per-device ΔVt standard deviation; 0 selects DefaultSigmaVt
	N       int     // number of samples (≥ 2)
	Seed    int64   // base PRNG seed; same seed ⇒ same samples

	Read    cell.ReadBias  // bias for RSNM; zero value selects NominalRead(Vdd)
	Write   cell.WriteBias // bias for WM; zero value selects NominalWrite(Vdd)
	Vdd     float64        // nominal supply; 0 selects device.Vdd
	Metrics Metric         // which margins to compute; 0 selects AllMetrics

	Sampler Sampler // draw sequence; zero value is plain Monte Carlo
	// Tilt is the importance-sampling σ inflation τ: draws come from
	// N(0, (τσ)²) with exact density-ratio weights, concentrating samples in
	// the μ−kσ tail. 0 or 1 disables the tilt; valid range is [1, MaxTilt].
	Tilt float64
}

func (c *Config) normalize() error {
	if c.N < 2 {
		return fmt.Errorf("mc: need N ≥ 2 samples, got %d", c.N)
	}
	if c.SigmaVt == 0 {
		c.SigmaVt = DefaultSigmaVt
	}
	if !(c.SigmaVt > 0) || math.IsInf(c.SigmaVt, 0) {
		return fmt.Errorf("mc: σVt %g must be positive and finite", c.SigmaVt)
	}
	if c.Vdd == 0 {
		c.Vdd = device.Vdd
	}
	if !(c.Vdd > 0) || math.IsInf(c.Vdd, 0) {
		return fmt.Errorf("mc: Vdd %g must be positive and finite", c.Vdd)
	}
	if c.Read == (cell.ReadBias{}) {
		c.Read = cell.NominalRead(c.Vdd)
	}
	if c.Write == (cell.WriteBias{}) {
		c.Write = cell.NominalWrite(c.Vdd)
	}
	if c.Metrics == 0 {
		c.Metrics = AllMetrics
	}
	if c.Sampler < 0 || c.Sampler >= numSamplers {
		return fmt.Errorf("mc: unknown sampler %d", int(c.Sampler))
	}
	if c.Tilt == 0 {
		c.Tilt = 1
	}
	if !(c.Tilt >= 1 && c.Tilt <= MaxTilt) { // rejects NaN too
		return fmt.Errorf("mc: tilt %g must be in [1, %g]", c.Tilt, MaxTilt)
	}
	return nil
}

// Sample is one Monte Carlo draw. Margins not requested are NaN. Weight is
// the importance weight of the draw (1 for untilted samplers); a zero Weight
// in a hand-built Sample is treated as 1 by the estimators.
type Sample struct {
	DVt    cell.Variation
	HSNM   float64
	RSNM   float64
	WM     float64
	Weight float64
}

// Min returns the smallest computed margin of the sample. It is
// allocation-free: it sits on the per-sample observability path and in the
// FailFraction loop.
func (s Sample) Min() float64 {
	m := math.Inf(1)
	if !math.IsNaN(s.HSNM) && s.HSNM < m {
		m = s.HSNM
	}
	if !math.IsNaN(s.RSNM) && s.RSNM < m {
		m = s.RSNM
	}
	if !math.IsNaN(s.WM) && s.WM < m {
		m = s.WM
	}
	return m
}

// weight returns the sample's importance weight, defaulting zero to 1.
func (s Sample) weight() float64 {
	if s.Weight == 0 {
		return 1
	}
	return s.Weight
}

// RunStats summarizes the execution of one Monte Carlo run. Samples and
// Workers are deterministic; Wall is environmental.
type RunStats struct {
	Samples int           // samples characterized
	Workers int           // goroutines the samples were distributed over
	Wall    time.Duration // wall-clock time of the run
}

func (s RunStats) String() string {
	return fmt.Sprintf("%d samples on %d workers in %s", s.Samples, s.Workers, s.Wall.Round(time.Microsecond))
}

// Result aggregates a Monte Carlo run.
type Result struct {
	Config  Config
	Samples []Sample
	Stats   RunStats

	// Summaries of the raw computed metric values. Under an importance tilt
	// these describe the tilted draw distribution; the weighted (unbiased)
	// estimators live in RunStream's checkpoints.
	HSNM, RSNM, WM num.Summary
}

// evaluator characterizes perturbed cells for one worker, holding the
// per-worker scratch netlists. Not safe for concurrent use.
type evaluator struct {
	lib *device.Library
	cfg *Config
	dr  *drawer
	scr *cell.Scratch // built on first use
}

func newEvaluator(lib *device.Library, cfg *Config, dr *drawer) *evaluator {
	return &evaluator{lib: lib, cfg: cfg, dr: dr}
}

// sample draws and characterizes sample i.
func (e *evaluator) sample(i int) (Sample, error) {
	cfg := e.cfg
	var s Sample
	s.HSNM, s.RSNM, s.WM = math.NaN(), math.NaN(), math.NaN()
	e.dr.draw(i, &s)

	needScratch := cfg.Metrics&(HSNM|RSNM) != 0 || (cfg.Metrics&WM != 0 && writeMarginFn == nil)
	if needScratch && e.scr == nil {
		scr, err := cell.NewScratch(&cell.Cell{Lib: e.lib, Flavor: cfg.Flavor})
		if err != nil {
			return s, err
		}
		e.scr = scr
	}
	var err error
	if cfg.Metrics&HSNM != 0 {
		if s.HSNM, err = e.scr.HoldSNM(s.DVt, cfg.Vdd); err != nil {
			return s, fmt.Errorf("HSNM: %w", err)
		}
	}
	if cfg.Metrics&RSNM != 0 {
		if s.RSNM, err = e.scr.ReadSNM(s.DVt, cfg.Read); err != nil {
			return s, fmt.Errorf("RSNM: %w", err)
		}
	}
	if cfg.Metrics&WM != 0 {
		var wm float64
		if fn := writeMarginFn; fn != nil {
			c := &cell.Cell{Lib: e.lib, Flavor: cfg.Flavor, DVt: s.DVt}
			wm, err = fn(c, cfg.Write)
		} else {
			wm, err = e.scr.WriteMargin(s.DVt, cfg.Write)
		}
		if err != nil {
			if !errors.Is(err, cell.ErrWriteFail) {
				// A real solver/infrastructure failure must surface, not be
				// folded into the yield statistics as a zero margin.
				return s, fmt.Errorf("WM: %w", err)
			}
			// The cell does not flip at the applied VWL: a legitimate fail
			// sample with zero write margin.
			wm = 0
			mWriteFails.Inc()
		}
		s.WM = wm
	}
	return s, nil
}

// Run executes the experiment, parallelized across CPU cores. It is
// RunContext without cancellation.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes the experiment, parallelized across CPU cores, and
// stops early when ctx is done: in-flight samples finish, pending ones are
// abandoned, and the cancellation cause is returned (wrapping the first real
// sample error, if any sample also failed). Sampling stays deterministic for
// a given seed — each sample's draws depend only on its index — so a
// completed run is bit-identical for any GOMAXPROCS. Work is claimed through
// an atomic cursor, so scheduling memory is O(workers) regardless of N.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	start := time.Now()
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	dr, err := newDrawer(&cfg)
	if err != nil {
		return nil, err
	}
	lib := device.Default7nm()
	samples := make([]Sample, cfg.N)
	errs := make([]error, cfg.N)

	mRuns.Inc()
	// The gauge is a shared in-flight total: delta it rather than Set it, so
	// two overlapping runs (e.g. concurrent /v1/yield requests) report
	// N1+N2 pending samples instead of whichever run registered last.
	gSamplesTotal.Add(float64(cfg.N))
	defer gSamplesTotal.Add(-float64(cfg.N))
	runSpan := obs.StartSpanCtx(ctx, "mc.run")
	runSpan.Int("n", int64(cfg.N))
	runSpan.Int("seed", cfg.Seed)

	var wg sync.WaitGroup
	var done atomic.Int64
	var cursor atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.N {
		workers = cfg.N
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := newEvaluator(lib, &cfg, dr)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= cfg.N || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				samples[i], errs[i] = ev.sample(i)
				done.Add(1)
				mSamplesDone.Inc()
				hSampleDur.Observe(time.Since(t0))
				if errs[i] != nil {
					mSampleFails.Inc()
				} else if obs.Enabled() {
					obs.PointCtx(ctx, "mc.sample", obs.I64("i", int64(i)), obs.F64("min_margin", samples[i].Min()))
				}
			}
		}()
	}
	wg.Wait()
	runSpan.Int("done", done.Load())
	runSpan.End()
	if ctx.Err() != nil {
		// A cancellation must not mask a real failure: if any completed
		// sample hit a solver error, surface it alongside the cause.
		for i, serr := range errs {
			if serr != nil {
				return nil, fmt.Errorf("mc: sample %d: %w (run canceled after %d of %d samples: %w)",
					i, serr, done.Load(), cfg.N, context.Cause(ctx))
			}
		}
		return nil, fmt.Errorf("mc: run canceled after %d of %d samples: %w", done.Load(), cfg.N, context.Cause(ctx))
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mc: sample %d: %w", i, err)
		}
	}
	res := &Result{
		Config:  cfg,
		Samples: samples,
		Stats:   RunStats{Samples: cfg.N, Workers: workers, Wall: time.Since(start)},
	}
	collect := func(get func(Sample) float64) num.Summary {
		vals := make([]float64, 0, cfg.N)
		for _, s := range samples {
			if v := get(s); !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return num.Summary{}
		}
		return num.Summarize(vals)
	}
	res.HSNM = collect(func(s Sample) float64 { return s.HSNM })
	res.RSNM = collect(func(s Sample) float64 { return s.RSNM })
	res.WM = collect(func(s Sample) float64 { return s.WM })
	return res, nil
}

// MuMinusKSigma returns μ − k·σ for a summary — the paper's yield statistic.
func MuMinusKSigma(s num.Summary, k float64) float64 { return s.Mean - k*s.Std }

// FailFraction returns the weighted fraction of samples whose minimum
// computed margin falls below delta. For unit weights this is the plain
// count fraction.
func (r *Result) FailFraction(delta float64) float64 {
	var wf, wt float64
	for _, s := range r.Samples {
		w := s.weight()
		wt += w
		if s.Min() < delta {
			wf += w
		}
	}
	return wf / wt
}
