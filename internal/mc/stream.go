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

// checkpointEvery is the approximate number of samples between emitted
// checkpoints. Checkpoints land on block boundaries, so the interval is
// rounded up to whole blocks.
const checkpointEvery = 32

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

// streamAcc accumulates the streaming estimators over merged samples.
type streamAcc struct {
	cfg   *Config
	delta float64 // fail threshold δ
	hsnm  num.Welford
	rsnm  num.Welford
	wm    num.Welford
	all   num.Welford // min-margin accumulator; carries ΣW/ΣW² for ESS
	failW float64     // Σw over samples with min margin < δ
}

func newStreamAcc(cfg *Config) *streamAcc {
	// δ = 0.35·Vdd is core.DefaultDelta, inlined to avoid the framework
	// dependency.
	return &streamAcc{cfg: cfg, delta: 0.35 * cfg.Vdd}
}

func (a *streamAcc) add(s *Sample) {
	w := s.weight()
	if a.cfg.Metrics&HSNM != 0 {
		a.hsnm.Add(s.HSNM, w)
	}
	if a.cfg.Metrics&RSNM != 0 {
		a.rsnm.Add(s.RSNM, w)
	}
	if a.cfg.Metrics&WM != 0 {
		a.wm.Add(s.WM, w)
	}
	min := s.Min()
	a.all.Add(min, w)
	if min < a.delta {
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
		Delta:   a.delta,
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

// Run executes a Monte Carlo experiment, parallelized across CPU cores:
// workers take fixed sample blocks from a queue in index order, and the
// calling goroutine merges finished blocks in index order, emitting a
// Checkpoint to emit (if non-nil) at every block-aligned interval. With
// cfg.RelCI = 0 the run merges all N samples. With cfg.RelCI > 0 it stops at
// the first checkpoint whose CIs are all inside the target, and the queue
// holds only a window of blocks past the last undecided checkpoint
// (streamWindow, DESIGN.md §12), so little or no work is spent past the
// stop. Each draw depends only on (seed, index) and merging is in index
// order, so the samples, summaries and every checkpoint are bit-identical
// for any GOMAXPROCS.
//
// emit runs on the caller's goroutine (safe for HTTP streaming). A non-nil
// error from emit aborts the run and is returned. When ctx is done, pending
// samples are abandoned and the cancellation cause is returned. A run that
// stops on a failed sample returns the lowest-index sample error, wrapped
// together with the cancellation cause when ctx is done too.
func Run(ctx context.Context, cfg Config, emit func(Checkpoint) error) (*Result, error) {
	start := time.Now()
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	dr, err := newDrawer(&cfg)
	if err != nil {
		return nil, err
	}
	lib := device.Default7nm()
	blockSize, nBlocks := planBlocks(cfg.N)
	cpBlocks := (checkpointEvery + blockSize - 1) / blockSize

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
	var stop atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	if workers > nBlocks {
		workers = nBlocks
	}

	// Workers take block indices from queue. A run without an early-stop
	// target queues every block up front; an early-stop run queues the first
	// window, and the reducer queues the next blocks up to one window past
	// each undecided checkpoint. finish closes the queue. Every block queued
	// but not yet merged is in one of the two channels at most once, and
	// there are at most window of them, so neither channel fills.
	window := nBlocks
	if cfg.RelCI > 0 {
		window = min(max(cpBlocks, streamWindow), nBlocks)
	}
	store := newBlockStore(cfg.N, window*blockSize, cpBlocks*blockSize)
	queue := make(chan int, window)
	queued := 0
	admit := func(limit int) {
		for ; queued < min(limit, nBlocks); queued++ {
			store.alloc(queued * blockSize)
			queue <- queued
		}
	}
	admit(window)

	doneCh := make(chan int, window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := newEvaluator(lib, &cfg, dr.fork())
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
					smp, err := store.at(i)
					*smp, *err = ev.sample(i)
					done.Add(1)
					mSamplesDone.Inc()
					hSampleDur.Observe(time.Since(t0))
					if *err != nil {
						mSampleFails.Inc()
					} else if obs.Enabled() {
						obs.PointCtx(ctx, "mc.sample", obs.I64("i", int64(i)), obs.F64("min_margin", smp.Min()))
					}
				}
				if !ok {
					b = ^b // cut short by cancellation
				}
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
	// ready[b] is 1 once block b is evaluated in full and −1 once a
	// cancellation cut it short: doneCh carries b or ^b.
	ready := make([]int8, nBlocks)
	markReady := func(b int) {
		if b < 0 {
			ready[^b] = -1
		} else {
			ready[b] = 1
		}
	}
	frontier := 0 // blocks merged so far
	merged := 0   // samples merged so far
	emitted := 0  // checkpoints emitted
	var final *Checkpoint
	var emitErr error

	// advance merges every ready in-order block, emitting checkpoints at
	// block-aligned intervals. It returns false when the run should stop
	// (converged, sample error, emit error, or an incomplete block).
	advance := func() bool {
		for frontier < nBlocks && ready[frontier] != 0 {
			if ready[frontier] < 0 {
				return false // cancellation landed mid-block
			}
			lo, hi := frontier*blockSize, (frontier+1)*blockSize
			if hi > cfg.N {
				hi = cfg.N
			}
			for i := lo; i < hi; i++ {
				smp, err := store.at(i)
				if *err != nil {
					return false
				}
				acc.add(smp)
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
						emitErr = fmt.Errorf("mc: checkpoint emit: %w", err)
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
			markReady(b)
			if !advance() {
				break loop
			}
		case <-workersDone:
			// Drain any block completions that raced the shutdown.
			for {
				select {
				case b := <-doneCh:
					markReady(b)
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

	if emitErr != nil {
		return nil, emitErr
	}
	if final == nil {
		// The reducer stopped short of a final checkpoint: a sample failed,
		// the context fired, or both. Every sample below the merge frontier
		// succeeded, so the lowest-index error is the one that stopped it.
		i, err := store.firstErr()
		switch {
		case i >= 0 && ctx.Err() != nil:
			return nil, fmt.Errorf("mc: sample %d: %w (run canceled after %d of %d samples: %w)",
				i, err, done.Load(), cfg.N, context.Cause(ctx))
		case i >= 0:
			return nil, fmt.Errorf("mc: sample %d: %w", i, err)
		case ctx.Err() != nil:
			return nil, fmt.Errorf("mc: run canceled after %d of %d samples: %w", done.Load(), cfg.N, context.Cause(ctx))
		}
		return nil, fmt.Errorf("mc: run ended after %d of %d samples without a final checkpoint", merged, cfg.N)
	}
	samples := store.merged(merged)
	return &Result{
		Config:      cfg,
		Samples:     samples,
		Stats:       RunStats{Samples: merged, Workers: workers, Wall: time.Since(start)},
		HSNM:        summarize(samples, func(s *Sample) float64 { return s.HSNM }),
		RSNM:        summarize(samples, func(s *Sample) float64 { return s.RSNM }),
		WM:          summarize(samples, func(s *Sample) float64 { return s.WM }),
		Final:       *final,
		Checkpoints: emitted,
	}, nil
}

// blockStore holds the samples and sample errors of the blocks a run
// queues, allocated as admit queues them: the first window in one slice,
// then one slice per checkpoint interval past it, the blocks an
// early-stopping run queues at each undecided checkpoint. A fixed-N run,
// whose window is every block, fills one contiguous slice; an
// early-stopping run pays only for the intervals it queues and, if it
// merges past its first window, copies its merged samples into one slice
// at the end. Only the reducer allocates; a worker reaches a block's
// storage after taking the block from the queue.
type blockStore struct {
	n, head, span int // samples: the budget, the first window, each later interval
	first         storePart
	later         []*storePart // the checkpoint intervals past the window
}

type storePart struct {
	samples []Sample
	errs    []error
}

func newPart(n int) storePart { return storePart{make([]Sample, n), make([]error, n)} }

// newBlockStore allocates the first head samples; alloc allocates the rest.
func newBlockStore(n, head, span int) *blockStore {
	head = min(head, n)
	return &blockStore{n: n, head: head, span: span,
		first: newPart(head), later: make([]*storePart, (n-head+span-1)/span)}
}

// locate returns the part holding sample i and i's index in it.
func (s *blockStore) locate(i int) (*storePart, int) {
	if i < s.head {
		return &s.first, i
	}
	k := (i - s.head) / s.span
	return s.later[k], i - s.head - k*s.span
}

// alloc gives the part holding sample i its storage, once.
func (s *blockStore) alloc(i int) {
	if i < s.head {
		return
	}
	k := (i - s.head) / s.span
	if s.later[k] == nil {
		p := newPart(min(s.span, s.n-s.head-k*s.span))
		s.later[k] = &p
	}
}

// at returns the slots of sample i, whose part must have been allocated.
func (s *blockStore) at(i int) (*Sample, *error) {
	p, j := s.locate(i)
	return &p.samples[j], &p.errs[j]
}

// merged returns the first n samples in index order: a prefix of the first
// window's slice when they all lie in it, else a copy of the parts'.
func (s *blockStore) merged(n int) []Sample {
	if n <= s.head {
		return s.first.samples[:n]
	}
	out := append(make([]Sample, 0, n), s.first.samples...)
	for _, p := range s.later {
		if len(out) == n {
			break
		}
		out = append(out, p.samples[:min(len(p.samples), n-len(out))]...)
	}
	return out
}

// firstErr returns the lowest-index sample error and its index, or −1.
// Allocated parts are a prefix of the index space.
func (s *blockStore) firstErr() (int, error) {
	for i := range s.n {
		p, j := s.locate(i)
		if p == nil {
			break
		}
		if p.errs[j] != nil {
			return i, p.errs[j]
		}
	}
	return -1, nil
}
