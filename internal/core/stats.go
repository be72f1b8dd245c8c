package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrInfeasible is wrapped by every "no feasible design" failure of the
// searchers, so callers sweeping partitionings or search-space variants can
// distinguish an empty feasible region (errors.Is(err, ErrInfeasible)) from
// a genuine model or cancellation error.
var ErrInfeasible = errors.New("no feasible design")

// SearchStats is the observability record of one search run. Every field
// except Wall and Workers is deterministic for a given Options: the same
// search returns bit-identical counts regardless of GOMAXPROCS or scheduling.
type SearchStats struct {
	Evaluated    int // model evaluations performed
	SkippedRSNM  int // structurally valid points pruned by the read-stability constraint (never evaluated)
	SkippedGeom  int // points rejected by geometry validation (never evaluated)
	SkippedRails int // evaluated points whose assist rails miss the access cycle
	PrunedVSSC   int // VSSC sweep levels removed up front by the read-stability check
	// PrunedBound counts the points branch-and-bound skipped, never
	// evaluated: their rectangle's lower bound (or rail feasibility) proved
	// they cannot win, or their group mask is equivalent to a smaller mask
	// of the same (chunk, segmentation, mux) block, whose identical points
	// answer for them (DESIGN.md §13.7). Only 8-group searches have
	// equivalent masks.
	PrunedBound int

	Chunks  int           // (row organization × VSSC) work units sharded across workers
	Workers int           // goroutines the shards were distributed over
	Wall    time.Duration // wall-clock time of the search (environmental, not deterministic)
}

// SkippedTotal returns the total candidate points rejected without producing
// a feasible evaluation. Branch-and-bound prunes are tracked separately in
// PrunedBound: those points are not rejected by a constraint, they are
// proven unable to beat the incumbent (the reconciliation invariant is
// Evaluated + SkippedRSNM + PrunedBound == levels × validCombosPerLevel).
func (s SearchStats) SkippedTotal() int { return s.SkippedRSNM + s.SkippedGeom + s.SkippedRails }

// BoundEfficiency returns the fraction of the bounded candidate space the
// branch-and-bound pass removed without evaluation:
// PrunedBound / (Evaluated + PrunedBound). Zero when pruning was disabled or
// nothing reached the bounded sweep.
func (s SearchStats) BoundEfficiency() float64 {
	if t := s.Evaluated + s.PrunedBound; t > 0 {
		return float64(s.PrunedBound) / float64(t)
	}
	return 0
}

func (s SearchStats) String() string {
	return fmt.Sprintf("%d evaluated, %d bound-pruned (%.0f%%), %d skipped (stability %d, geometry %d, rails %d), %d VSSC levels pruned, %d chunks on %d workers in %s",
		s.Evaluated, s.PrunedBound, 100*s.BoundEfficiency(),
		s.SkippedTotal(), s.SkippedRSNM, s.SkippedGeom, s.SkippedRails,
		s.PrunedVSSC, s.Chunks, s.Workers, s.Wall.Round(time.Microsecond))
}

// addWorker folds one worker's partial counters into the aggregate.
func (s *SearchStats) addWorker(o SearchStats) {
	s.Evaluated += o.Evaluated
	s.SkippedRSNM += o.SkippedRSNM
	s.SkippedGeom += o.SkippedGeom
	s.SkippedRails += o.SkippedRails
	s.PrunedBound += o.PrunedBound
}

// SearchError is returned when a search aborts — a model-evaluation error or
// a context cancellation — and carries the statistics accumulated by every
// worker up to the abort, so the cost of a failed search is still observable.
type SearchError struct {
	Stats SearchStats
	Cause error
}

func (e *SearchError) Error() string {
	return fmt.Sprintf("core: search aborted after %s: %v", e.Stats, e.Cause)
}

func (e *SearchError) Unwrap() error { return e.Cause }
