package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// runSeconds is the run length BENCHMARK.json gives the benchmark.
func runSeconds(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj.RunSeconds
}

func testPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := spec.workload(name)
	if !ok {
		t.Fatalf("workload %q missing from workloads.json", name)
	}
	p, err := newPlan(w, seed, runSeconds(t))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// TestPlanDeterministic pins the seed contract: one seed gives one request
// sequence, whatever GOMAXPROCS is, and another seed gives another.
func TestPlanDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"search-plain", "search-hybrid", "serve-hot", "yield"} {
		runtime.GOMAXPROCS(1)
		a := testPlan(t, name, 7)
		runtime.GOMAXPROCS(4)
		b := testPlan(t, name, 7)
		if !sameRequests(a.reqs, b.reqs) || !sameRequests(a.warmup, b.warmup) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if c := testPlan(t, name, 8); sameRequests(a.reqs, c.reqs) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
	}
}

// TestTailPercentileRecorded keeps workloads.json's tail_percentile equal to
// what the tail rule picks for each workload's latency window at the
// benchmark's run length.
func TestTailPercentileRecorded(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		p := testPlan(t, w.Name, 1)
		if got := tailPercentile(p.latWindow()); got != w.TailPercentile {
			t.Errorf("%s: windows of %d requests give p%d, workloads.json records p%d", w.Name, p.latWindow(), got, w.TailPercentile)
		}
	}
}

// TestColdKeysUnique checks that every request of a cold workload, warmup
// included, has its own canonical cache key, so none can be a cache hit.
func TestColdKeysUnique(t *testing.T) {
	for _, name := range []string{"search-plain", "search-hybrid", "yield"} {
		p := testPlan(t, name, 1)
		seen := map[string]bool{}
		for _, r := range append(append([]request(nil), p.warmup...), p.reqs...) {
			if r.key == "" {
				t.Fatalf("%s: request %s has no key", name, r.body)
			}
			if seen[r.key] {
				t.Fatalf("%s: key %s generated twice", name, r.key)
			}
			seen[r.key] = true
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with what the benchmark prints: its workloads, and every metric name and
// unit in the order the result lines use.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(bj.Workloads), len(spec.Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, spec.Workloads[i].Name)
		}
	}
	e2e := (&passResult{outs: make([]outcome, 1), wall: time.Second}).endToEnd(&plan{})
	if len(bj.EndToEnd) != len(endToEndOrder) {
		t.Fatalf("%d end_to_end metrics, the benchmark prints %d", len(bj.EndToEnd), len(endToEndOrder))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEndOrder[i] || m.Unit != e2e[m.Name].Unit {
			t.Errorf("end_to_end %d: %s [%s], printed %s [%s]", i, m.Name, m.Unit, endToEndOrder[i], e2e[m.Name].Unit)
		}
	}
	if len(bj.PerLayer) != len(layerOrder) {
		t.Fatalf("%d per_layer metrics, the benchmark prints %d", len(bj.PerLayer), len(layerOrder))
	}
	for i, m := range bj.PerLayer {
		if m.Name != layerOrder[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("per_layer %d: %s [%s], printed %s [%s]", i, m.Name, m.Unit, layerOrder[i], unitOf(layerOrder[i]))
		}
	}
}

// TestBlocksCoverEveryCell checks the stratification the spread of
// search-hybrid rests on: each block holds every (capacity, groups, mux)
// cell twice, once per objective and once per flavor.
func TestBlocksCoverEveryCell(t *testing.T) {
	p := testPlan(t, "search-hybrid", 1)
	if p.segLen != 36 || len(p.reqs)%36 != 0 {
		t.Fatalf("%d requests in blocks of %d, want blocks of 36", len(p.reqs), p.segLen)
	}
	for lo := 0; lo < len(p.reqs); lo += 36 {
		seen := map[[3]int]map[string]bool{}
		for _, r := range p.reqs[lo : lo+36] {
			o := r.opt
			c := [3]int{o.CapacityBytes, o.Groups, o.Mux}
			if seen[c] == nil {
				seen[c] = map[string]bool{}
			}
			seen[c][o.Flavor] = true
			seen[c][o.Objective] = true
		}
		if len(seen) != 18 {
			t.Fatalf("block at %d covers %d cells, want 18", lo, len(seen))
		}
		for c, m := range seen {
			if len(m) != 4 {
				t.Errorf("block at %d, cell %v: %v, want both flavors and both objectives", lo, c, m)
			}
		}
	}
}

// TestPlainBlocksBalanced checks the stratification of search-plain: in
// each block, every (capacity, method, DWL, mux) cell sends each objective,
// a pareto request and each (W, flavor) pair once per round, with one round
// of m1 and two of m2.
func TestPlainBlocksBalanced(t *testing.T) {
	p := testPlan(t, "search-plain", 1)
	const blockLen = 7 * 3 * 2 * 3 * 6
	if p.segLen != blockLen || len(p.reqs)%blockLen != 0 {
		t.Fatalf("%d requests in blocks of %d, want blocks of %d", len(p.reqs), p.segLen, blockLen)
	}
	type cell struct {
		kb, mux int
		method  string
		dwl     bool
	}
	for lo := 0; lo < len(p.reqs); lo += blockLen {
		counts := map[cell]map[string]int{}
		for _, r := range p.reqs[lo : lo+blockLen] {
			o := r.opt
			c := cell{o.CapacityBytes >> 10, o.Mux, o.Method, o.DWL}
			if counts[c] == nil {
				counts[c] = map[string]int{}
			}
			task := o.Objective
			if r.kind == "pareto" {
				task = "pareto"
			}
			counts[c][task]++
			counts[c][fmt.Sprintf("w=%d/%s", o.W, o.Flavor)]++
		}
		if len(counts) != 7*2*2*3 {
			t.Fatalf("block at %d covers %d cells, want %d", lo, len(counts), 7*2*2*3)
		}
		for c, m := range counts {
			rounds := 1
			if c.method == "m2" {
				rounds = 2
			}
			if len(m) != 12 {
				t.Errorf("block at %d, cell %+v: %v, want 6 tasks and 6 (W, flavor) pairs", lo, c, m)
			}
			for k, n := range m {
				if n != rounds {
					t.Errorf("block at %d, cell %+v: %s sent %d times, want %d", lo, c, k, n, rounds)
				}
			}
		}
	}
}
