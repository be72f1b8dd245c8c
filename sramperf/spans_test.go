package main

import "testing"

// TestSelfTimeSubtractsUnion checks that a search's own time is its run span
// minus the union of its chunk spans: overlapping chunks from concurrent
// workers count once, gaps between chunks count as the run's own time.
func TestSelfTimeSubtractsUnion(t *testing.T) {
	chunks := []interval{
		{20, 30}, {0, 10}, {5, 15}, // unsorted; two overlap → [0,15]
		{25, 26},           // nested inside [20,30]
		{40, 50}, {50, 55}, // touching → [40,55]
	}
	if got := unionLength(chunks); got != 15+10+15 {
		t.Errorf("union = %d, want 40", got)
	}
	if got := selfTime(100, chunks); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(7, nil); got != 7 {
		t.Errorf("self time without children = %d, want 7", got)
	}
}

// TestScrubOrdersBatchLines checks the digest's scrubbing: a batch answers in
// completion order with per-line tiers, neither of which may change the
// digest.
func TestScrubOrdersBatchLines(t *testing.T) {
	r := &request{kind: "batch"}
	a := []byte(`{"index":1,"op":"evaluate","status":200,"cache":"miss","body":{"x":2}}` + "\n" +
		`{"index":0,"op":"optimize","status":200,"cache":"catalog","body":{"x":1}}` + "\n")
	b := []byte(`{"index":0,"op":"optimize","status":200,"cache":"catalog","body":{"x":1}}` + "\n" +
		`{"index":1,"op":"evaluate","status":200,"cache":"hit","body":{"x":2}}` + "\n")
	if string(scrub(r, a)) != string(scrub(r, b)) {
		t.Errorf("scrubbed bodies differ:\n%s\n%s", scrub(r, a), scrub(r, b))
	}
}

func TestParetoCheckRejectsDominated(t *testing.T) {
	ok := []byte(`{"front":[{"Result":{"DArray":1,"EArray":3}},{"Result":{"DArray":2,"EArray":2}}]}`)
	if err := pareto(ok); err != nil {
		t.Errorf("valid front rejected: %v", err)
	}
	dominated := []byte(`{"front":[{"Result":{"DArray":1,"EArray":2}},{"Result":{"DArray":2,"EArray":2}}]}`)
	if err := pareto(dominated); err == nil {
		t.Error("dominated point accepted")
	}
	unsorted := []byte(`{"front":[{"Result":{"DArray":2,"EArray":1}},{"Result":{"DArray":1,"EArray":3}}]}`)
	if err := pareto(unsorted); err == nil {
		t.Error("front unsorted by delay accepted")
	}
}
