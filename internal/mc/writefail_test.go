package mc

import (
	"context"
	"errors"
	"testing"
	"time"

	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/obs"
)

// swapWriteMargin replaces the WriteMargin seam for the duration of a test.
func swapWriteMargin(t *testing.T, fn func(*cell.Cell, cell.WriteBias) (float64, error)) {
	t.Helper()
	old := writeMarginFn
	writeMarginFn = fn
	t.Cleanup(func() { writeMarginFn = old })
}

// TestWriteFailSampleIsLegitFail drives the real simulator into a genuine
// write failure (VWL far too low to flip the cell) and asserts the run
// treats every sample as a legitimate zero-margin draw, counted under
// mc.samples.writefail — not as an error.
func TestWriteFailSampleIsLegitFail(t *testing.T) {
	write := cell.NominalWrite(device.Vdd)
	write.VWL = 0.05 // cannot flip the cell: write margin ≤ 0 for every draw
	before := obs.Default().CounterValue("mc.samples.writefail")
	res, err := Run(context.Background(), Config{Flavor: device.HVT, N: 2, Seed: 7, Write: write, Metrics: WM}, nil)
	if err != nil {
		t.Fatalf("write-fail samples must not fail the run: %v", err)
	}
	for i, s := range res.Samples {
		if s.WM != 0 {
			t.Errorf("sample %d: WM = %g, want 0 for a failing write", i, s.WM)
		}
	}
	if got := obs.Default().CounterValue("mc.samples.writefail") - before; got != 2 {
		t.Errorf("mc.samples.writefail delta = %d, want 2", got)
	}
}

// TestRealWriteMarginErrorPropagates injects an infrastructure error through
// the WriteMargin seam and asserts the run surfaces it instead of silently
// recording a zero margin (the pre-fix behavior).
func TestRealWriteMarginErrorPropagates(t *testing.T) {
	boom := errors.New("transient solver diverged")
	swapWriteMargin(t, func(*cell.Cell, cell.WriteBias) (float64, error) { return 0, boom })
	_, err := Run(context.Background(), Config{Flavor: device.HVT, N: 2, Seed: 7, Metrics: WM}, nil)
	if err == nil {
		t.Fatal("infrastructure error swallowed: run succeeded")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("run error %v does not wrap the solver error", err)
	}
}

// TestConcurrentRunsShareSamplesTotal runs two Monte Carlo configs at the
// same time and asserts mc.samples.total reports the sum of their pending
// samples while both are in flight, returning to the baseline afterwards.
// The seam gates every sample so both runs are provably overlapping when
// the gauge is read; pre-fix, Set clobbered one run's total with the
// other's and the sum was never observable.
func TestConcurrentRunsShareSamplesTotal(t *testing.T) {
	gate := make(chan struct{})
	swapWriteMargin(t, func(*cell.Cell, cell.WriteBias) (float64, error) {
		<-gate
		return 0.1, nil
	})

	base := obs.Default().GaugeValue("mc.samples.total")
	const n1, n2 = 7, 11
	errc := make(chan error, 2)
	run := func(n int, seed int64) {
		_, err := Run(context.Background(), Config{Flavor: device.HVT, N: n, Seed: seed, Metrics: WM}, nil)
		errc <- err
	}
	go run(n1, 1)
	go run(n2, 2)

	deadline := time.After(30 * time.Second)
	for obs.Default().GaugeValue("mc.samples.total") != base+n1+n2 {
		select {
		case <-deadline:
			t.Fatalf("mc.samples.total = %g, never reached %g (base %g + %d + %d)",
				obs.Default().GaugeValue("mc.samples.total"), base+n1+n2, base, n1, n2)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := obs.Default().GaugeValue("mc.samples.total"); got != base {
		t.Errorf("mc.samples.total = %g after both runs, want baseline %g", got, base)
	}
}
