package mc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sramco/internal/obs"
)

// snapshotAfterRun resets the default registry, runs the config under the
// given GOMAXPROCS, and returns the resulting metric snapshot.
func snapshotAfterRun(t *testing.T, procs int, cfg Config) obs.Snapshot {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	obs.Default().Reset()
	if _, err := Run(context.Background(), cfg, nil); err != nil {
		t.Fatalf("Run at GOMAXPROCS=%d: %v", procs, err)
	}
	return obs.Default().Snapshot()
}

// TestCountersDeterministicAcrossGOMAXPROCS proves every counter — the mc
// sample counts and all the circuit/cell work counters underneath — is
// bit-identical whether the samples run on one worker or eight: the metrics
// count work performed, never scheduling.
func TestCountersDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{N: 4, Seed: 7, Metrics: HSNM}
	one := snapshotAfterRun(t, 1, cfg)
	eight := snapshotAfterRun(t, 8, cfg)

	if !reflect.DeepEqual(one.Counters, eight.Counters) {
		t.Errorf("counters differ across GOMAXPROCS:\n 1: %v\n 8: %v", one.Counters, eight.Counters)
	}
	// Histogram observation counts are scheduling-independent too (the
	// recorded durations are not — compare counts only).
	for name, h1 := range one.Histograms {
		if h8, ok := eight.Histograms[name]; ok && h1.Count != h8.Count {
			t.Errorf("histogram %s count %d at GOMAXPROCS=1, %d at 8", name, h1.Count, h8.Count)
		}
	}
	if one.Counters["mc.samples.done"] != int64(cfg.N) {
		t.Errorf("mc.samples.done = %d, want %d", one.Counters["mc.samples.done"], cfg.N)
	}
}

// TestRunContextCanceled proves a canceled context aborts the run before
// any pending sample starts and surfaces the cancellation cause.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{N: 8, Seed: 1, Metrics: HSNM}, nil)
	if err == nil {
		t.Fatal("Run on a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled after 0 of 8 samples") {
		t.Errorf("error %q does not report the done/total counts", err)
	}
}

// TestRunStatsPopulated checks the execution summary of a completed run.
func TestRunStatsPopulated(t *testing.T) {
	res, err := Run(context.Background(), Config{N: 2, Seed: 3, Metrics: HSNM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Samples != 2 || s.Workers < 1 || s.Wall <= 0 {
		t.Errorf("RunStats = %+v, want 2 samples, ≥1 worker, positive wall time", s)
	}
	if !strings.Contains(s.String(), "2 samples") {
		t.Errorf("RunStats.String() = %q", s.String())
	}
}
