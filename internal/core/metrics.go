package core

import "sramco/internal/obs"

// Search metrics. core.search.evaluated is flushed in small batches from
// worker-local counters (never per evaluation), so the exhaustive search's
// hot loop pays one atomic add per N_wr sweep; the counter is still live
// enough to drive a progress ticker. Totals are deterministic for a given
// Options regardless of GOMAXPROCS.
var (
	mSearchRuns      = obs.NewCounter("core.search.runs")
	mSearchEvaluated = obs.NewCounter("core.search.evaluated")
	mSearchChunks    = obs.NewCounter("core.search.chunks_done")
	mUnitsPrepared   = obs.NewCounter("core.search.units_prepared")
	gSearchChunks    = obs.NewGauge("core.search.chunks_total")
	hChunkDur        = obs.NewHistogram("core.search.chunk_duration")
)
