package mc

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sramco/internal/device"
	"sramco/internal/num"
)

// oracleRun is the sequential reference for Run: it draws and characterizes
// samples 0, 1, … in order on one evaluator, folds them into a fresh
// streamAcc, emits a checkpoint at each block-aligned interval of
// planBlocks, and stops at the first converged checkpoint. It has none of
// the engine's scheduling — no workers, queue, window or out-of-order
// completion — so any difference from Run is the engine's.
func oracleRun(cfg Config) ([]Sample, []Checkpoint, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	dr, err := newDrawer(&cfg)
	if err != nil {
		return nil, nil, err
	}
	ev := newEvaluator(device.Default7nm(), &cfg, dr)
	acc := newStreamAcc(&cfg)
	size, blocks := planBlocks(cfg.N)
	every := (checkpointEvery + size - 1) / size
	var samples []Sample
	var cps []Checkpoint
	for b := 1; b <= blocks; b++ {
		for i := (b - 1) * size; i < min(b*size, cfg.N); i++ {
			s, err := ev.sample(i)
			if err != nil {
				return nil, nil, err
			}
			samples = append(samples, s)
			acc.add(&s)
		}
		if b < blocks && b%every != 0 {
			continue
		}
		cp := acc.checkpoint(len(samples), b == blocks)
		if cp.converged(cfg.RelCI) {
			cp.Converged, cp.Final = true, true
		}
		cps = append(cps, cp)
		if cp.Final {
			break
		}
	}
	return samples, cps, nil
}

// oracleSummary summarizes one requested metric's values over the oracle's
// samples; the zero Summary when the metric was not requested.
func oracleSummary(cfg Config, m Metric, samples []Sample, get func(Sample) float64) num.Summary {
	if cfg.Metrics&m == 0 {
		return num.Summary{}
	}
	var vals []float64
	for _, s := range samples {
		vals = append(vals, get(s))
	}
	return num.Summarize(vals)
}

// sameSample compares two samples bit for bit, NaN margins included.
func sameSample(a, b Sample) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.DVt == b.DVt && same(a.HSNM, b.HSNM) && same(a.RSNM, b.RSNM) && same(a.WM, b.WM) && same(a.Weight, b.Weight)
}

// checkRunMatchesOracle runs cfg through Run at GOMAXPROCS 1, 2 and 4 and
// requires the merged samples, the summaries, every emitted checkpoint, the
// final checkpoint and the merged count to equal the oracle's, bit for bit.
func checkRunMatchesOracle(t *testing.T, cfg Config) {
	t.Helper()
	want, wantCPs, err := oracleRun(cfg)
	if err != nil {
		t.Fatalf("oracle %+v: %v", cfg, err)
	}
	norm := cfg
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	wantH := oracleSummary(norm, HSNM, want, func(s Sample) float64 { return s.HSNM })
	wantR := oracleSummary(norm, RSNM, want, func(s Sample) float64 { return s.RSNM })
	wantW := oracleSummary(norm, WM, want, func(s Sample) float64 { return s.WM })

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var cps []Checkpoint
		res, err := Run(context.Background(), cfg, func(cp Checkpoint) error {
			cps = append(cps, cp)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v at GOMAXPROCS %d: %v", cfg, procs, err)
		}
		if len(res.Samples) != len(want) || res.Stats.Samples != len(want) {
			t.Fatalf("%+v at GOMAXPROCS %d: %d samples kept, Stats.Samples %d; oracle merged %d",
				cfg, procs, len(res.Samples), res.Stats.Samples, len(want))
		}
		for i := range want {
			if !sameSample(res.Samples[i], want[i]) {
				t.Fatalf("%+v at GOMAXPROCS %d: sample %d = %+v, oracle %+v", cfg, procs, i, res.Samples[i], want[i])
			}
		}
		if res.HSNM != wantH || res.RSNM != wantR || res.WM != wantW {
			t.Fatalf("%+v at GOMAXPROCS %d: summaries %+v %+v %+v, oracle %+v %+v %+v",
				cfg, procs, res.HSNM, res.RSNM, res.WM, wantH, wantR, wantW)
		}
		if !reflect.DeepEqual(cps, wantCPs) {
			t.Fatalf("%+v at GOMAXPROCS %d: checkpoints differ from the oracle's:\n%+v\nvs\n%+v", cfg, procs, cps, wantCPs)
		}
		if !reflect.DeepEqual(res.Final, wantCPs[len(wantCPs)-1]) || res.Checkpoints != len(wantCPs) {
			t.Fatalf("%+v at GOMAXPROCS %d: final %+v after %d checkpoints, oracle %+v after %d",
				cfg, procs, res.Final, res.Checkpoints, wantCPs[len(wantCPs)-1], len(wantCPs))
		}
	}
}

// TestRunMatchesOracle compares the engine with the sequential oracle over
// every sampler, with and without tilt and early stop, at sample counts on
// both sides of the block-size and checkpoint boundaries (1-sample blocks up
// to N = 32, 2-sample blocks from 33, a checkpoint every 11 blocks at
// N = 96, 10-sample blocks at 301), on the synthetic write-margin seam and
// on one real hold-SNM run.
func TestRunMatchesOracle(t *testing.T) {
	checkRunMatchesOracle(t, Config{Flavor: device.HVT, N: 8, Seed: 5, Metrics: HSNM})
	syntheticWM(t, 0.5)
	for sampler := SamplerMC; sampler < numSamplers; sampler++ {
		for _, tilt := range []float64{1, 3} {
			for _, relCI := range []float64{0, 0.1} {
				for _, n := range []int{2, 31, 33, 96, 301} {
					checkRunMatchesOracle(t, Config{Flavor: device.HVT, N: n, Seed: int64(n), Metrics: WM,
						Sampler: sampler, Tilt: tilt, RelCI: relCI})
				}
			}
		}
	}
}

// FuzzRunMatchesOracle is TestRunMatchesOracle's check over fuzzed
// configurations on the synthetic write-margin seam: any sampler, tilt in
// [1, MaxTilt], N ≤ 512, seed and early-stop target in [0, 1).
func FuzzRunMatchesOracle(f *testing.F) {
	f.Add(uint8(0), 0.0, uint16(0), int64(1), 0.0)
	f.Add(uint8(1), 2.0, uint16(94), int64(2), 0.1)
	f.Add(uint8(2), 0.0, uint16(299), int64(12), 0.05)
	f.Fuzz(func(t *testing.T, sampler uint8, tilt float64, n uint16, seed int64, relCI float64) {
		cfg := Config{
			Flavor:  device.HVT,
			N:       2 + int(n)%511,
			Seed:    seed,
			Metrics: WM,
			Sampler: Sampler(sampler % uint8(numSamplers)),
			Tilt:    1 + math.Mod(math.Abs(tilt), MaxTilt-1),
			RelCI:   math.Mod(math.Abs(relCI), 1),
		}
		if c := cfg; c.normalize() != nil {
			return // NaN or Inf mapped out of the domain; Run rejects it too
		}
		syntheticWM(t, 0.5)
		checkRunMatchesOracle(t, cfg)
	})
}
