package mc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// ci95Z is the 95% two-sided normal quantile used for all streaming CIs.
const ci95Z = 1.959963984540054

// minESSForStop is the smallest effective sample size at which an early stop
// may trigger: below this the variance of the variance estimate makes the CI
// itself too noisy to trust.
const minESSForStop = 16

// streamWindow is the least number of blocks an early-stopping run admits
// past its last undecided checkpoint. Where checkpoints lie at least this
// many blocks apart (N ≤ 128 at the default 32-sample interval), no block
// past the next checkpoint starts before the reducer has decided it, so the
// run computes exactly the samples it merges. Where they lie closer, up to
// this many blocks still run at once, and a run computes at most
// streamWindow − cpBlocks blocks past the checkpoint that stops it. It is a
// constant, not GOMAXPROCS, so that bound is the same on every host.
const streamWindow = 8

// StreamConfig configures a streaming Monte Carlo run.
type StreamConfig struct {
	Config

	// RelCI is the early-stop target: the run stops at the first checkpoint
	// where every requested metric's 95% CI half-width on μ−3σ is within
	// RelCI·|μ−3σ|. 0 disables early stop (all N samples run).
	RelCI float64
	// Delta is the fail threshold for the fail-fraction estimate; 0 selects
	// the paper's δ = 0.35·Vdd.
	Delta float64
	// CheckpointEvery is the approximate number of samples between emitted
	// checkpoints; 0 selects 32. Checkpoints land on block boundaries, so
	// the effective interval is rounded up to whole blocks.
	CheckpointEvery int
	// KeepValues retains each metric's raw sample values (in index order) in
	// the StreamResult, enabling full summaries (median/quantiles) after a
	// streaming run.
	KeepValues bool
}

func (c *StreamConfig) normalize() error {
	if err := c.Config.normalize(); err != nil {
		return err
	}
	if !(c.RelCI >= 0 && c.RelCI < 1) || math.IsNaN(c.RelCI) {
		return fmt.Errorf("mc: rel_ci %g must be in [0, 1)", c.RelCI)
	}
	if c.Delta == 0 {
		c.Delta = 0.35 * c.Vdd // core.DefaultDelta, inlined to avoid the framework dependency
	}
	if !(c.Delta > 0) || math.IsInf(c.Delta, 0) {
		return fmt.Errorf("mc: delta %g must be positive and finite", c.Delta)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 32
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("mc: checkpoint interval %d must be ≥ 0", c.CheckpointEvery)
	}
	return nil
}

// MetricStat is the streaming estimate of one margin at a checkpoint. All
// moments are importance-weighted; for untilted samplers they reduce to the
// plain estimators.
type MetricStat struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mu3    float64 `json:"mu3sigma"` // μ − 3σ, the paper's yield statistic
	CIHalf float64 `json:"ci_half"`  // 95% half-width on μ−3σ; −1 when not yet computable
	RelCI  float64 `json:"rel_ci"`   // CIHalf / |μ−3σ|; −1 when not yet computable
}

// Checkpoint is one emitted line of a streaming run: the state of all
// estimators after a fixed, scheduling-independent prefix of the sample
// index space.
type Checkpoint struct {
	Samples int     `json:"samples"` // samples merged into the estimators
	ESS     float64 `json:"ess"`     // Kish effective sample size

	HSNM *MetricStat `json:"hsnm,omitempty"`
	RSNM *MetricStat `json:"rsnm,omitempty"`
	WM   *MetricStat `json:"wm,omitempty"`

	Delta        float64 `json:"delta_v"`       // fail threshold in volts
	FailFraction float64 `json:"fail_fraction"` // weighted P(min margin < δ)
	FailLo       float64 `json:"fail_ci_lo"`    // Wilson 95% bounds on the fail fraction
	FailHi       float64 `json:"fail_ci_hi"`

	Converged bool `json:"converged"` // RelCI target met at this checkpoint
	Final     bool `json:"final"`     // last checkpoint of the run
}

// StreamResult is the outcome of a streaming run.
type StreamResult struct {
	Config      StreamConfig
	Final       Checkpoint
	Checkpoints int      // checkpoints emitted (including the final one)
	Stats       RunStats // Samples = samples actually merged

	// Values holds each requested metric's raw sample values in index order
	// when KeepValues was set.
	Values map[Metric][]float64
}

// streamAcc accumulates the streaming estimators over merged samples.
type streamAcc struct {
	cfg    *StreamConfig
	hsnm   num.Welford
	rsnm   num.Welford
	wm     num.Welford
	all    num.Welford // min-margin accumulator; carries ΣW/ΣW² for ESS
	failW  float64     // Σw over samples with min margin < δ
	values map[Metric][]float64
}

func newStreamAcc(cfg *StreamConfig) *streamAcc {
	a := &streamAcc{cfg: cfg}
	if cfg.KeepValues {
		a.values = map[Metric][]float64{}
	}
	return a
}

func (a *streamAcc) add(s *Sample) {
	w := s.weight()
	if a.cfg.Metrics&HSNM != 0 {
		a.hsnm.Add(s.HSNM, w)
		if a.values != nil {
			a.values[HSNM] = append(a.values[HSNM], s.HSNM)
		}
	}
	if a.cfg.Metrics&RSNM != 0 {
		a.rsnm.Add(s.RSNM, w)
		if a.values != nil {
			a.values[RSNM] = append(a.values[RSNM], s.RSNM)
		}
	}
	if a.cfg.Metrics&WM != 0 {
		a.wm.Add(s.WM, w)
		if a.values != nil {
			a.values[WM] = append(a.values[WM], s.WM)
		}
	}
	min := s.Min()
	a.all.Add(min, w)
	if min < a.cfg.Delta {
		a.failW += w
	}
}

// stat converts one Welford accumulator into its checkpoint form, with
// non-finite CI fields sanitized to −1 (JSON-encodable, "not yet known").
func stat(w *num.Welford) *MetricStat {
	m := &MetricStat{
		N: w.Count, Mean: w.Mean(), Std: w.Std(), Min: w.MinV, Max: w.MaxV,
	}
	m.Mu3 = m.Mean - 3*m.Std
	m.CIHalf = w.MuMinusKSigmaCI(3, ci95Z)
	m.RelCI = -1
	if !math.IsInf(m.CIHalf, 0) && !math.IsNaN(m.CIHalf) {
		if abs := math.Abs(m.Mu3); abs > 0 {
			m.RelCI = m.CIHalf / abs
		}
	} else {
		m.CIHalf = -1
	}
	return m
}

// checkpoint snapshots the accumulators after `samples` merged samples.
func (a *streamAcc) checkpoint(samples int, final bool) Checkpoint {
	cp := Checkpoint{
		Samples: samples,
		ESS:     a.all.ESS(),
		Delta:   a.cfg.Delta,
		Final:   final,
	}
	if a.cfg.Metrics&HSNM != 0 {
		cp.HSNM = stat(&a.hsnm)
	}
	if a.cfg.Metrics&RSNM != 0 {
		cp.RSNM = stat(&a.rsnm)
	}
	if a.cfg.Metrics&WM != 0 {
		cp.WM = stat(&a.wm)
	}
	if a.all.SumW > 0 {
		cp.FailFraction = a.failW / a.all.SumW
		cp.FailLo, cp.FailHi = num.WilsonCI(cp.FailFraction, cp.ESS, ci95Z)
	} else {
		cp.FailHi = 1
	}
	return cp
}

// converged reports whether every requested metric's relative CI is inside
// the target.
func (cp *Checkpoint) converged(target float64) bool {
	if target <= 0 || cp.ESS < minESSForStop {
		return false
	}
	for _, m := range []*MetricStat{cp.HSNM, cp.RSNM, cp.WM} {
		if m == nil {
			continue
		}
		if m.RelCI < 0 || m.RelCI > target {
			return false
		}
	}
	return true
}

// RunStream executes a streaming Monte Carlo run: workers take fixed sample
// blocks from a queue in index order, and the calling goroutine merges
// finished blocks in index order, emitting a Checkpoint to emit (if non-nil)
// at every block-aligned interval. When cfg.RelCI > 0, the run stops at the
// first checkpoint whose CIs are all inside the target, and the queue holds
// only a window of blocks past the last undecided checkpoint (streamWindow,
// DESIGN.md §12), so little or no work is spent past the stop. The merged
// statistics — and therefore the entire checkpoint sequence — are
// bit-identical for any GOMAXPROCS.
//
// emit runs on the caller's goroutine (safe for HTTP streaming). A non-nil
// error from emit aborts the run and is returned.
func RunStream(ctx context.Context, cfg StreamConfig, emit func(Checkpoint) error) (*StreamResult, error) {
	start := time.Now()
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	dr, err := newDrawer(&cfg.Config)
	if err != nil {
		return nil, err
	}
	lib := device.Default7nm()
	blockSize, nBlocks := planBlocks(cfg.N)
	cpBlocks := (cfg.CheckpointEvery + blockSize - 1) / blockSize
	if cpBlocks < 1 {
		cpBlocks = 1
	}

	samples := make([]Sample, cfg.N)
	errs := make([]error, cfg.N)
	blockOK := make([]bool, nBlocks) // block fully evaluated (no cancellation mid-block)

	mRuns.Inc()
	gSamplesTotal.Add(float64(cfg.N))
	defer gSamplesTotal.Add(-float64(cfg.N))
	runSpan := obs.StartSpanCtx(ctx, "mc.stream")
	runSpan.Int("n", int64(cfg.N))
	runSpan.Int("seed", cfg.Seed)

	var wg sync.WaitGroup
	var done atomic.Int64
	var stop atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	if workers > nBlocks {
		workers = nBlocks
	}

	// Workers take block indices from queue. A fixed-N run queues every
	// block up front; an early-stop run queues the first window, and the
	// reducer queues the next blocks up to one window past each undecided
	// checkpoint. finish closes the queue.
	window := nBlocks
	if cfg.RelCI > 0 {
		window = max(cpBlocks, streamWindow)
	}
	queue := make(chan int, nBlocks)
	queued := 0
	admit := func(limit int) {
		for ; queued < min(limit, nBlocks); queued++ {
			queue <- queued
		}
	}
	admit(window)

	doneCh := make(chan int, nBlocks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := newEvaluator(lib, &cfg.Config, dr)
			for {
				var b int
				var open bool
				select {
				case b, open = <-queue:
				case <-ctx.Done():
				}
				if !open || stop.Load() || ctx.Err() != nil {
					return
				}
				lo, hi := b*blockSize, (b+1)*blockSize
				if hi > cfg.N {
					hi = cfg.N
				}
				ok := true
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						ok = false
						break
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
				blockOK[b] = ok
				doneCh <- b
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	// Whatever path exits the reducer, halt the workers and wait them out
	// before touching shared state or returning.
	finish := func() {
		stop.Store(true)
		close(queue)
		<-workersDone
	}

	acc := newStreamAcc(&cfg)
	ready := make([]bool, nBlocks)
	frontier := 0 // blocks merged so far
	merged := 0   // samples merged so far
	emitted := 0  // checkpoints emitted
	var final *Checkpoint
	var runErr error

	// advance merges every ready in-order block, emitting checkpoints at
	// block-aligned intervals. It returns false when the run should stop
	// (converged, sample error, emit error, or an incomplete block).
	advance := func() bool {
		for frontier < nBlocks && ready[frontier] {
			if !blockOK[frontier] {
				return false // cancellation landed mid-block
			}
			lo, hi := frontier*blockSize, (frontier+1)*blockSize
			if hi > cfg.N {
				hi = cfg.N
			}
			for i := lo; i < hi; i++ {
				if errs[i] != nil {
					runErr = fmt.Errorf("mc: sample %d: %w", i, errs[i])
					return false
				}
				acc.add(&samples[i])
			}
			merged = hi
			frontier++
			if frontier == nBlocks || frontier%cpBlocks == 0 {
				cp := acc.checkpoint(merged, frontier == nBlocks)
				if cp.converged(cfg.RelCI) {
					cp.Converged = true
					cp.Final = true
				} else {
					// Undecided: queue the next window before emit runs.
					admit(frontier + window)
				}
				emitted++
				if emit != nil {
					if err := emit(cp); err != nil {
						runErr = fmt.Errorf("mc: checkpoint emit: %w", err)
						return false
					}
				}
				if cp.Final {
					final = &cp
					return false
				}
			}
		}
		return true
	}

loop:
	for frontier < nBlocks {
		select {
		case b := <-doneCh:
			ready[b] = true
			if !advance() {
				break loop
			}
		case <-workersDone:
			// Drain any block completions that raced the shutdown.
			for {
				select {
				case b := <-doneCh:
					ready[b] = true
				default:
					advance()
					break loop
				}
			}
		}
	}
	finish()

	runSpan.Int("done", done.Load())
	runSpan.Int("merged", int64(merged))
	runSpan.End()

	if runErr != nil {
		return nil, runErr
	}
	if final == nil {
		// The reducer stopped before reaching a final checkpoint: either the
		// context fired or a worker died without finishing its blocks.
		if ctx.Err() != nil {
			for i, serr := range errs {
				if serr != nil {
					return nil, fmt.Errorf("mc: sample %d: %w (run canceled after %d of %d samples: %w)",
						i, serr, done.Load(), cfg.N, context.Cause(ctx))
				}
			}
			return nil, fmt.Errorf("mc: run canceled after %d of %d samples: %w", done.Load(), cfg.N, context.Cause(ctx))
		}
		for i, serr := range errs {
			if serr != nil {
				return nil, fmt.Errorf("mc: sample %d: %w", i, serr)
			}
		}
		return nil, fmt.Errorf("mc: stream ended after %d of %d samples without a final checkpoint", merged, cfg.N)
	}
	return &StreamResult{
		Config:      cfg,
		Final:       *final,
		Checkpoints: emitted,
		Stats:       RunStats{Samples: merged, Workers: workers, Wall: time.Since(start)},
		Values:      acc.values,
	}, nil
}
