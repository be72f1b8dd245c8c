package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sramco/internal/obs"
)

// Batch guardrails: one batch is many requests, so it gets a larger body
// budget than a single call but a hard item ceiling.
const (
	maxBatchItems = 256
	maxBatchBytes = 8 << 20
)

var mBatchItems = obs.NewCounter("serve.batch.items")

// batchItem is one decoded, normalized line of a /v1/batch request.
type batchItem struct {
	op  *op
	req request
}

// batchOp returns the operation a batch line's op tag names, or nil when
// /v1/batch does not take it.
func batchOp(name string) *op {
	for _, o := range ops {
		if o.name == name && o.newLine != nil {
			return o
		}
	}
	return nil
}

// batchWant names the ops /v1/batch takes, for its error messages:
// "optimize, evaluate or pareto".
var batchWant = func() string {
	var names []string
	for _, o := range ops {
		if o.newLine != nil {
			names = append(names, o.name)
		}
	}
	last := len(names) - 1
	if last == 0 {
		return names[0]
	}
	return strings.Join(names[:last], ", ") + " or " + names[last]
}()

// decodeBatch parses an NDJSON batch body: one request object per line,
// each tagged with an "op" field naming one of the batchWant operations
// next to that operation's ordinary request fields. Blank lines are
// skipped. Every line is strict-decoded and normalized up front — any
// malformed line fails the whole batch with a 400 before anything
// streams, so a batch response is always a clean NDJSON stream. Per-item
// deadlines do not exist in a batch: the whole batch shares one deadline
// (the ?timeout_ms query parameter, capped by the server), and keys never
// include deadlines anyway.
func decodeBatch(r io.Reader) ([]batchItem, *apiError) {
	// Read one byte past the limit so a body of exactly maxBatchBytes is
	// accepted and anything larger is detected without buffering it all.
	body, err := io.ReadAll(io.LimitReader(r, maxBatchBytes+1))
	if err != nil {
		return nil, badRequest("batch body: %v", err)
	}
	if len(body) > maxBatchBytes {
		return nil, badRequest("batch body exceeds the %d byte limit", maxBatchBytes)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	var items []batchItem
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if len(items) >= maxBatchItems {
			return nil, badRequest("batch exceeds the %d item limit", maxBatchItems)
		}
		var env struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, badRequest("batch line %d: %v", line, err)
		}
		o := batchOp(env.Op)
		if o == nil {
			if env.Op == "" {
				return nil, badRequest("batch line %d: missing op (want %s)", line, batchWant)
			}
			return nil, badRequest("batch line %d: unknown op %q (want %s)", line, env.Op, batchWant)
		}
		req, dst := o.newLine()
		if aerr := decodeJSON(bytes.NewReader(raw), dst); aerr != nil {
			return nil, badRequest("batch line %d: %s", line, aerr.Message)
		}
		if aerr := req.normalize(); aerr != nil {
			return nil, badRequest("batch line %d: %s", line, aerr.Message)
		}
		items = append(items, batchItem{op: o, req: req})
	}
	if err := sc.Err(); err != nil {
		return nil, badRequest("batch body: %v", err)
	}
	if len(items) == 0 {
		return nil, badRequest("batch body is empty")
	}
	return items, nil
}

// batchResult is one streamed NDJSON line of a /v1/batch response: the
// item's ordinal in the request (blank lines don't count), the HTTP status
// the item would have received as a
// standalone request, the cache tier that answered (empty on error), and
// the exact response (or error-envelope) bytes.
type batchResult struct {
	Index  int             `json:"index"`
	Op     string          `json:"op"`
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// toBatchResult builds one streamed line and records the item's per-line
// RED series: each batch item lands under the "/v1/batch:<op>" endpoint
// label with the same outcome classification a standalone request gets, so
// per-endpoint latency panels see through the batch envelope.
func toBatchResult(idx int, op string, res cached, state string, err error, d time.Duration) batchResult {
	if err != nil {
		aerr := asAPIError(err)
		mErrors.Inc()
		observeRED(batchLabel(op), outcomeFor(aerr.Status, state), d)
		b, _ := json.Marshal(errorEnvelope{Error: *aerr})
		return batchResult{Index: idx, Op: op, Status: aerr.Status, Body: b}
	}
	if res.status != http.StatusOK {
		mErrors.Inc()
	}
	observeRED(batchLabel(op), outcomeFor(res.status, state), d)
	return batchResult{Index: idx, Op: op, Status: res.status, Cache: state, Body: res.body}
}

// handleBatch answers POST /v1/batch: many optimize/evaluate/pareto items
// in one NDJSON body, results streamed back as NDJSON in completion order,
// flushed per line so callers read early results while later chunks still
// compute. Each item goes through the same catalog → cache → coalesced-fill
// path as its standalone endpoint and carries its own status; the HTTP
// status of the stream itself is 200 once decoding succeeds. Every item
// fans out onto the worker pool. One admit spans the whole batch, so
// draining waits for it like any other request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Message: "use POST with an NDJSON body"})
		return
	}
	timeoutMS := 0
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, badRequest("timeout_ms query parameter %q must be a non-negative integer", q))
			return
		}
		timeoutMS = v
	}
	items, aerr := decodeBatch(r.Body)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	release, err := s.admit()
	if err != nil {
		writeError(w, asAPIError(err))
		return
	}
	defer release()
	mBatchItems.Add(int64(len(items)))

	batchCtx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(timeoutMS))
	defer cancel()

	results := make(chan batchResult, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it batchItem) {
			defer wg.Done()
			t0 := time.Now()
			key, _, fill := it.req.call(s, it.op)
			res, state, err := s.respond(batchCtx, key, fill)
			results <- toBatchResult(i, it.op.name, res, state, err, time.Since(t0))
		}(i, it)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for res := range results {
		if err := enc.Encode(res); err != nil {
			mErrors.Inc()
			return // client went away; producers unwind via batchCtx
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
