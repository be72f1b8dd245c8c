package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkGate checks the work gate: any increase of a gated work count
// fails and names the benchmark and the counter, whatever the timing says;
// equal or lower counts pass; counts one log lacks are skipped and listed;
// pruning and work-size metrics are never gated. Repeated runs keep the
// fastest time and the largest work count.
func TestWorkGate(t *testing.T) {
	const base = `BenchmarkSearch-2   	10	1000000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	13672 bounds
BenchmarkSolver-2   	10	2000000 ns/op	32.00 samples	36348 newton-its	7861 tran-steps
`
	for _, tc := range []struct {
		name    string
		current string
		fail    bool
		want    []string // substrings of the report
	}{
		{
			name: "same work, faster",
			current: `BenchmarkSearch-2   	10	900000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	13672 bounds
BenchmarkSolver-2   	10	1900000 ns/op	32.00 samples	36348 newton-its	7861 tran-steps
`,
			want: []string{"13672          13672         bounds"},
		},
		{
			name: "one more bound, faster",
			current: `BenchmarkSearch-2   	10	500000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	13673 bounds
BenchmarkSolver-2   	10	2000000 ns/op	32.00 samples	36348 newton-its	7861 tran-steps
`,
			fail: true,
			want: []string{"BenchmarkSearch", "bounds  WORK INCREASE"},
		},
		{
			name: "one more Newton iteration",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	13672 bounds
BenchmarkSolver-2   	10	2000000 ns/op	32.00 samples	36349 newton-its	7861 tran-steps
`,
			fail: true,
			want: []string{"newton-its  WORK INCREASE"},
		},
		{
			name: "less work and ungated metrics moving",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	0.5 bound-eff	6000 model-evals	99000 pruned-bound	200000 space-points	10000 bounds
BenchmarkSolver-2   	10	4000000 ns/op	64.00 samples	30000 newton-its	7000 tran-steps
`,
		},
		{
			name: "counts missing from either log are skipped",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	99 units-prepared
BenchmarkSolver-2   	10	2000000 ns/op	32.00 samples	36348 newton-its	7861 tran-steps
`,
			want: []string{"skipped: units-prepared (missing from baseline), bounds (missing from current)"},
		},
		{
			name: "the largest count of repeated runs",
			current: `BenchmarkSearch-2   	10	800000 ns/op	0.9 bound-eff	6598 model-evals	93402 pruned-bound	100000 space-points	13672 bounds
BenchmarkSearch-2   	10	1200000 ns/op	0.9 bound-eff	6599 model-evals	93401 pruned-bound	100000 space-points	13672 bounds
BenchmarkSolver-2   	10	2000000 ns/op	32.00 samples	36348 newton-its	7861 tran-steps
`,
			fail: true,
			want: []string{"8.00", "model-evals  WORK INCREASE"},
		},
	} {
		dir := t.TempDir()
		bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "current.txt")
		if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp, []byte(tc.current), 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := parseLog(bp)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parseLog(cp)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		failed := compare(&out, b, c, []string{"BenchmarkSearch", "BenchmarkSolver"}, 1e9)
		if failed != tc.fail {
			t.Errorf("%s: failed = %v, want %v\n%s", tc.name, failed, tc.fail, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, w, out.String())
			}
		}
		for _, ungated := range []string{"pruned-bound", "bound-eff", "samples", "space-points"} {
			if strings.Contains(out.String(), " "+ungated) {
				t.Errorf("%s: report gates %s:\n%s", tc.name, ungated, out.String())
			}
		}
	}
}

// TestAllocGate checks the allocation gate: an allocs/op more than the
// allowed fraction above the baseline fails and names the benchmark,
// whatever the timing says; within the fraction, or lower, passes; a
// zero-allocation baseline allows none; a benchmark whose allocs/op only
// one log reports is skipped and listed; repeated runs keep the largest
// count.
func TestAllocGate(t *testing.T) {
	const base = `BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds	  209352 B/op	     786 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`
	for _, tc := range []struct {
		name    string
		current string
		fail    bool
		want    []string // substrings of the report
	}{
		{
			name: "fewer allocations",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds	   26227 B/op	     163 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`,
			want: []string{"786            163    -79.3%  allocs/op"},
		},
		{
			name: "within the fraction",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds	  209352 B/op	     864 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`,
		},
		{
			name: "past the fraction, faster",
			current: `BenchmarkSearch-2   	10	500000 ns/op	13672 bounds	  209352 B/op	     865 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`,
			fail: true,
			want: []string{"BenchmarkSearch", "865     10.1%  allocs/op  ALLOC REGRESSION"},
		},
		{
			name: "one allocation over a zero baseline",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds	  209352 B/op	     786 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       8 B/op	       1 allocs/op
`,
			fail: true,
			want: []string{"allocs/op  ALLOC REGRESSION"},
		},
		{
			name: "allocations missing from one log are skipped",
			current: `BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`,
			want: []string{"skipped, allocs/op missing from a log: BenchmarkSearch"},
		},
		{
			name: "the largest count of repeated runs",
			current: `BenchmarkSearch-2   	10	900000 ns/op	13672 bounds	  209352 B/op	     786 allocs/op
BenchmarkSearch-2   	10	1000000 ns/op	13672 bounds	  309352 B/op	     900 allocs/op
BenchmarkLookup-2   	10	100 ns/op	       0 B/op	       0 allocs/op
`,
			fail: true,
			want: []string{"900     14.5%  allocs/op  ALLOC REGRESSION"},
		},
	} {
		dir := t.TempDir()
		bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "current.txt")
		if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp, []byte(tc.current), 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := parseLog(bp)
		if err != nil {
			t.Fatal(err)
		}
		c, err := parseLog(cp)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		failed := compare(&out, b, c, []string{"BenchmarkSearch", "BenchmarkLookup"}, 0.10)
		if failed != tc.fail {
			t.Errorf("%s: failed = %v, want %v\n%s", tc.name, failed, tc.fail, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, w, out.String())
			}
		}
		if strings.Contains(out.String(), "allocs/op  WORK INCREASE") {
			t.Errorf("%s: allocs/op gated as an exact work count:\n%s", tc.name, out.String())
		}
	}
}

// TestTimeGate keeps the time gate: a normalized time past the allowed
// fraction fails, and a named benchmark missing from a log fails.
func TestTimeGate(t *testing.T) {
	b := map[string]benchResult{"BenchmarkA": {ns: 100}, "BenchmarkB": {ns: 100}}
	c := map[string]benchResult{"BenchmarkA": {ns: 105}}
	var out strings.Builder
	if compare(&out, b, c, []string{"BenchmarkA"}, 0.10) {
		t.Errorf("5 %% slower failed a 10 %% gate:\n%s", out.String())
	}
	c["BenchmarkA"] = benchResult{ns: 111}
	if !compare(&out, b, c, []string{"BenchmarkA"}, 0.10) {
		t.Errorf("11 %% slower passed a 10 %% gate:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, b, c, []string{"BenchmarkB"}, 0.10) || !strings.Contains(out.String(), "missing from the current log") {
		t.Errorf("a missing benchmark passed:\n%s", out.String())
	}
}
