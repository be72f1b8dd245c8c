package core

import "sramco/internal/obs"

// Search metrics. core.search.evaluated and core.search.bounds are flushed
// from worker-local counts once per swept unit and once per chunk (never per
// evaluation or row), so the hot loop pays no atomic add; the counters are
// still live enough to drive a progress ticker. Totals are deterministic for
// a given Options regardless of GOMAXPROCS.
var (
	mSearchRuns      = obs.NewCounter("core.search.runs")
	mSearchEvaluated = obs.NewCounter("core.search.evaluated")
	mSearchBounds    = obs.NewCounter("core.search.bounds")
	mSearchChunks    = obs.NewCounter("core.search.chunks_done")
	mUnitsPrepared   = obs.NewCounter("core.search.units_prepared")
	gSearchChunks    = obs.NewGauge("core.search.chunks_total")
	hChunkDur        = obs.NewHistogram("core.search.chunk_duration")
)
