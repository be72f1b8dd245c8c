package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sramco"
)

const evalLine = `{"op":"evaluate","flavor":"hvt","nr":32,"nc":32,"npre":1,"nwr":1}`

// readBatch posts an NDJSON batch and decodes every result line.
func readBatch(t *testing.T, url, body string) (int, []batchResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []batchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	for sc.Scan() {
		var r batchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("batch line %q: %v", sc.Bytes(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch stream: %v", err)
	}
	return resp.StatusCode, out
}

// TestBatchMixedOps drives optimize, evaluate and pareto items through one
// batch and checks each result against the standalone endpoint: same status,
// bit-identical body.
func TestBatchMixedOps(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		evalLine,
		``, // blank lines are allowed and skipped
		`{"op":"pareto","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":262144,"flavor":"hvt"}`, // infeasible
	}, "\n")
	code, results := readBatch(t, ts.URL, batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	byIndex := map[int]batchResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}

	// Index is the item's ordinal among decoded items; the blank line
	// between items 1 and 2 does not count.
	standalone := map[int]struct {
		path, body string
		status     int
	}{
		0: {"/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt"}`, http.StatusOK},
		1: {"/v1/evaluate", strings.Replace(evalLine, `"op":"evaluate",`, "", 1), http.StatusOK},
		2: {"/v1/pareto", `{"capacity_bytes":128,"flavor":"hvt"}`, http.StatusOK},
		3: {"/v1/optimize", `{"capacity_bytes":262144,"flavor":"hvt"}`, http.StatusUnprocessableEntity},
	}
	for idx, want := range standalone {
		r, ok := byIndex[idx]
		if !ok {
			t.Errorf("no result for input line index %d", idx)
			continue
		}
		if r.Status != want.status {
			t.Errorf("item %d: status %d, want %d (body %s)", idx, r.Status, want.status, r.Body)
			continue
		}
		code, _, body := postJSON(t, ts.URL+want.path, want.body)
		if code != want.status {
			t.Errorf("standalone %s: status %d, want %d", want.path, code, want.status)
			continue
		}
		if !bytes.Equal(r.Body, body) {
			t.Errorf("item %d: batch body not bit-identical to %s", idx, want.path)
		}
	}

	// The batch populated the shared cache: standalone repeats are hits.
	_, hdr, _ := postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt"}`)
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Errorf("standalone after batch X-Cache = %q, want hit", got)
	}
}

// TestBatchStreamsBeforeCompletion holds one batch item open behind a gate
// and asserts the other item's NDJSON line arrives while the gate is still
// closed — the handler must flush per line, not buffer until the end.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	fw := framework(t)
	// Two worker slots, so the gated optimize fill cannot starve the
	// evaluate item on a single-core machine.
	s := New(fw, Config{Workers: 2})
	gate := make(chan struct{})
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		return fw.Optimize(ctx, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := `{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}` + "\n" + evalLine
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// Read the first line while the optimize fill is still gated.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	if !sc.Scan() {
		t.Fatalf("no first line before gate opened: %v", sc.Err())
	}
	var first batchResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if first.Op != "evaluate" || first.Status != http.StatusOK {
		t.Fatalf("first streamed line = op %q status %d, want the ungated evaluate", first.Op, first.Status)
	}

	close(gate)
	if !sc.Scan() {
		t.Fatalf("no second line after gate opened: %v", sc.Err())
	}
	var second batchResult
	if err := json.Unmarshal(sc.Bytes(), &second); err != nil {
		t.Fatalf("second line: %v", err)
	}
	if second.Op != "optimize" || second.Status != http.StatusOK {
		t.Errorf("second line = op %q status %d, want optimize/200", second.Op, second.Status)
	}
	if sc.Scan() {
		t.Errorf("unexpected extra line: %s", sc.Bytes())
	}
}

// TestBatchRejectsMalformedInput: any bad line fails the whole batch with a
// 400 before anything streams.
func TestBatchRejectsMalformedInput(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]string{
		"empty body":     "",
		"blank lines":    "\n\n\n",
		"not json":       "hello",
		"missing op":     `{"capacity_bytes":128,"flavor":"hvt"}`,
		"unknown op":     `{"op":"yield","flavor":"hvt"}`,
		"bad field":      `{"op":"optimize","capacity_bytes":128,"flavor":"hvt","bogus":1}`,
		"invalid flavor": `{"op":"optimize","capacity_bytes":128,"flavor":"xvt"}`,
		"good then bad":  `{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}` + "\nnope",
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var env errorEnvelope
		if jerr := json.NewDecoder(resp.Body).Decode(&env); jerr != nil {
			t.Errorf("%s: non-envelope error body: %v", name, jerr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/batch?timeout_ms=-5", "application/x-ndjson", strings.NewReader(evalLine))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout_ms: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchDeadlineAnswersEveryItem pins the batch deadline on the
// per-item path every op shares: once the deadline passes, every item still
// waiting answers 504, both those whose fill is stuck and those queued
// behind them for a worker slot, and the stream ends instead of waiting for
// the fills.
func TestBatchDeadlineAnswersEveryItem(t *testing.T) {
	// Two worker slots for four items, so two fills hold the slots and two
	// items queue behind them.
	s := New(framework(t), Config{Timeout: 100 * time.Millisecond, Workers: 2})
	gate := make(chan struct{})
	var fills atomic.Int32
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		fills.Add(1)
		<-gate // ignores ctx: the fill outlives the batch deadline
		return nil, context.Cause(ctx)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Four distinct (uncached) optimize items.
	batch := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":256,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":512,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":1024,"flavor":"hvt"}`,
	}, "\n")
	code, results := readBatch(t, ts.URL, batch+"\n")
	defer close(gate) // let the stuck fills finish and unwind

	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, r := range results {
		if r.Status != http.StatusGatewayTimeout {
			t.Errorf("item %d: status %d, want 504 after batch deadline", r.Index, r.Status)
		}
	}
	// The queued items never reach optimizeFn: their slots stay held past
	// their own server-capped deadline.
	waitFor(t, "both slot holders to start", func() bool { return fills.Load() >= 2 })
	time.Sleep(50 * time.Millisecond)
	if n := fills.Load(); n != 2 {
		t.Errorf("%d fills started, want 2 (one per worker slot)", n)
	}
}

// TestBatchByteLimitBoundary: a body of exactly maxBatchBytes — final line
// unterminated — is accepted; one byte more is a 400. The pre-fix
// accounting charged a newline the unterminated line didn't have, rejecting
// exact-limit bodies.
func TestBatchByteLimitBoundary(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One real item, then whitespace-only padding lines (skipped by the
	// decoder) up to exactly maxBatchBytes, without a trailing newline.
	var sb strings.Builder
	sb.WriteString(evalLine + "\n")
	pad := strings.Repeat(" ", maxBodyBytes-1) + "\n"
	for sb.Len()+len(pad) <= maxBatchBytes {
		sb.WriteString(pad)
	}
	sb.WriteString(strings.Repeat(" ", maxBatchBytes-sb.Len()))
	body := sb.String()
	if len(body) != maxBatchBytes {
		t.Fatalf("built a %d-byte body, want exactly %d", len(body), maxBatchBytes)
	}

	code, results := readBatch(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("exact-limit body: status %d, want 200", code)
	}
	if len(results) != 1 || results[0].Status != http.StatusOK {
		t.Fatalf("exact-limit body: results %+v, want one OK item", results)
	}

	if code, _ := readBatch(t, ts.URL, body+" "); code != http.StatusBadRequest {
		t.Errorf("over-limit body: status %d, want 400", code)
	}
}

// TestBatchItemLimit: a batch over maxBatchItems is refused up front.
func TestBatchItemLimit(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sb strings.Builder
	for i := 0; i <= maxBatchItems; i++ {
		sb.WriteString(evalLine)
		sb.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

// TestBatchLineLimit pins the longest batch line: a line and its newline
// fit in maxBodyBytes, with or without the newline present.
func TestBatchLineLimit(t *testing.T) {
	for _, end := range []string{"", "\n"} {
		fits := evalLine + strings.Repeat(" ", maxBodyBytes-1-len(evalLine)) + end
		if items, aerr := decodeBatch(strings.NewReader(fits)); aerr != nil || len(items) != 1 {
			t.Errorf("line of %d bytes (end %q): %d items, error %v; want one item", maxBodyBytes-1, end, len(items), aerr)
		}
		long := evalLine + strings.Repeat(" ", maxBodyBytes-len(evalLine)) + end
		if _, aerr := decodeBatch(strings.NewReader(long)); aerr == nil || aerr.Status != http.StatusBadRequest {
			t.Errorf("line of %d bytes (end %q): error %v, want a 400", maxBodyBytes, end, aerr)
		}
	}
}

// TestDecodeBatchAllocs pins what decoding a small batch allocates:
// decodeBatch splits the body it has read in place, so three lines cost a
// few kilobytes. A 64 KB line buffer per batch made it ~70 KB.
func TestDecodeBatchAllocs(t *testing.T) {
	body := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		evalLine,
		`{"op":"pareto","capacity_bytes":128,"flavor":"hvt"}`,
	}, "\n") + "\n"
	if items, aerr := decodeBatch(strings.NewReader(body)); aerr != nil || len(items) != 3 {
		t.Fatalf("decodeBatch: %d items, error %v; want 3 items", len(items), aerr)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeBatch(strings.NewReader(body))
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := res.AllocedBytesPerOp(); got >= 8<<10 {
		t.Errorf("decodeBatch of 3 lines: %d B/op, want under %d", got, 8<<10)
	}
}

// TestBatchLinesAreEncoderBytes pins the hand-written batch line to
// json.Encoder's. A batch of catalog optimize and pareto hits, an evaluate
// fill, a fill's 400 and a cached 422 envelope must come back with every
// line exactly as the encoder writes its batchResult. The writer copies
// each stored body unchanged, which equals the encoder only when the body
// is compact and HTML-escaped, so every body the batch returned and every
// catalog entry must re-compact to itself; a body holding a raw '<', which
// the encoder escapes, shows the two writers differ.
func TestBatchLinesAreEncoderBytes(t *testing.T) {
	s := catalogServer(t, CatalogGrid{
		CapacitiesBytes: []int{128},
		Flavors:         []string{"hvt"},
		Methods:         []string{"m2"},
		Objectives:      []string{"edp"},
		Pareto:          true,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	infeasible := `{"capacity_bytes":262144,"flavor":"hvt"}`
	if code, _, _ := postJSON(t, ts.URL+"/v1/optimize", infeasible); code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible optimize: status %d, want 422", code)
	}

	batch := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"pareto","capacity_bytes":128,"flavor":"hvt"}`,
		evalLine,
		`{"op":"evaluate","flavor":"hvt","nr":32,"nc":32,"npre":1,"nwr":1,"vddc":0.1}`, // the model rejects the rail
		`{"op":"optimize","capacity_bytes":262144,"flavor":"hvt"}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"optimize 200 catalog": true,
		"pareto 200 catalog":   true,
		"evaluate 200 miss":    true,
		"evaluate 400 ":        true,
		"optimize 422 hit":     true,
	}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r batchResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("batch line %q: %v", line, err)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, enc.Bytes()) {
			t.Errorf("line differs from json.Encoder's:\n got %s\nwant %s", line, enc.Bytes())
		}
		checkRecompacts(t, r.Op, r.Body)
		name := fmt.Sprintf("%s %d %s", r.Op, r.Status, r.Cache)
		if !want[name] {
			t.Errorf("unexpected line %s", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("no line %s", name)
	}
	for _, key := range s.Catalog().Keys() {
		body, _ := s.Catalog().Lookup(key)
		checkRecompacts(t, key, body)
	}

	unescaped := batchResult{Index: 0, Op: "evaluate", Status: http.StatusOK, Cache: "hit", Body: json.RawMessage(`{"note":"<"}`)}
	var hand, enc bytes.Buffer
	if err := (&lineWriter{w: &hand}).write(unescaped); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&enc).Encode(unescaped); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(hand.Bytes(), enc.Bytes()) {
		t.Errorf("a body holding a raw '<' wrote the encoder's bytes %s; the encoder escapes it", enc.Bytes())
	}
}

// checkRecompacts fails unless body is compact, HTML-escaped JSON: the form
// json.Marshal writes and json.Encoder leaves unchanged.
func checkRecompacts(t *testing.T, what string, body []byte) {
	t.Helper()
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatalf("%s: body is not JSON: %v", what, err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	if !bytes.Equal(escaped.Bytes(), body) {
		t.Errorf("%s: body does not re-compact to itself", what)
	}
}

// BenchmarkBatchCatalogHits measures a batch of three catalog optimize hits
// through the full handler stack: the path the small batches of sramperf's
// serve-hot workload take, which BenchmarkBatch64's fills never reach.
func BenchmarkBatchCatalogHits(b *testing.B) {
	s := catalogServer(b, CatalogGrid{
		CapacitiesBytes: []int{128},
		Flavors:         []string{"hvt"},
		Methods:         []string{"m2"},
		Objectives:      []string{"edp", "delay", "energy"},
	})
	body := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt","objective":"delay"}`,
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt","objective":"energy"}`,
	}, "\n") + "\n"
	h := s.Handler()
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"cache":"catalog"`)) != 3 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkBatch64 measures a 64-item evaluate batch through the full HTTP
// handler. Items vary by geometry so the batch is real work, not 64 cache
// hits; the cache is disabled to keep every iteration on the fill path.
func BenchmarkBatch64(b *testing.B) {
	s := New(framework(b), Config{CacheSize: -1})
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, `{"op":"evaluate","flavor":"hvt","nr":%d,"nc":%d,"npre":1,"nwr":1}`+"\n", 16<<(i%5), 32<<(i%3))
	}
	body := sb.String()

	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleBatch(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	run() // warm the framework and evaluator paths
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
