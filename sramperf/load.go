package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the client-side record of one request. Times are offsets from
// the start of the loop that sent it.
type outcome struct {
	status int
	cache  string // X-Cache header
	body   []byte // nil when dropped as a repeat (see keepFirst)
	size   int    // body length
	sum    [32]byte
	err    error

	sent, done time.Duration
	firstLine  time.Duration // NDJSON responses: first line received (0 otherwise)
}

// latency is the client-observed time of the request.
func (o *outcome) latency() time.Duration { return o.done - o.sent }

// sender issues one request; do is replaceable so the loop can be tested
// without a server.
type sender func(i int, r *request) outcome

// closedLoop sends reqs from `clients` goroutines, each sending its next
// request as soon as the previous one completes. Requests are claimed in
// sequence order.
func closedLoop(reqs []request, clients int, do sender) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t := time.Since(start)
				o := do(i, &reqs[i])
				o.sent = t
				o.done = t + o.done
				o.firstLine = nonzeroAdd(t, o.firstLine)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func nonzeroAdd(t, d time.Duration) time.Duration {
	if d == 0 {
		return 0
	}
	return t + d
}

// httpSender returns a sender for the server at base. The returned outcome's
// done and firstLine are durations since the send. With traced set, each
// request carries a traceparent naming its index (see traceID). A response is
// read into a reused buffer and handed to keep, which stores what the checks
// need, so the generator allocates little per request and its own garbage
// collector seldom competes with the server for the CPUs.
func httpSender(client *http.Client, base string, traced bool, keep bodyKeeper) sender {
	var bufs sync.Pool
	return func(i int, r *request) outcome {
		var o outcome
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			o.err = err
			return o
		}
		req.Header.Set("Content-Type", "application/json")
		if traced {
			req.Header.Set("traceparent", fmt.Sprintf("00-%s-%016x-01", traceID(i), i+1))
		}
		resp, err := client.Do(req)
		if err != nil {
			o.err = err
			o.done = time.Since(t0)
			return o
		}
		o.status = resp.StatusCode
		o.cache = resp.Header.Get("X-Cache")
		buf, _ := bufs.Get().(*bytes.Buffer)
		if buf == nil {
			buf = new(bytes.Buffer)
		}
		buf.Reset()
		if r.kind == "yieldstream" || r.kind == "batch" {
			br := bufio.NewReader(resp.Body)
			for {
				line, err := br.ReadSlice('\n')
				buf.Write(line)
				if err == bufio.ErrBufferFull {
					continue // the line is longer than the reader's buffer
				}
				if buf.Len() > 0 && o.firstLine == 0 {
					o.firstLine = time.Since(t0)
				}
				if err != nil {
					if err != io.EOF {
						o.err = err
					}
					break
				}
			}
		} else {
			_, o.err = buf.ReadFrom(resp.Body)
		}
		resp.Body.Close()
		o.done = time.Since(t0)
		o.size = buf.Len()
		keep(r, buf.Bytes(), &o)
		bufs.Put(buf)
		return o
	}
}

// bodyKeeper stores what an outcome keeps of a response body that lives in
// a reused buffer.
type bodyKeeper func(r *request, body []byte, o *outcome)

// keepAll keeps a copy of every response body, non-nil even when empty
// (a nil body marks a dropped repeat).
func keepAll(_ *request, body []byte, o *outcome) { o.body = append([]byte{}, body...) }

// keepFirst keeps a response body only the first time its request is sent;
// a repeat whose body hashes the same keeps just the hash, so a hot
// workload's memory grows with its distinct requests, not its request
// count. Batches answer in completion order and are always kept.
func keepFirst() bodyKeeper {
	var mu sync.Mutex
	first := map[string][32]byte{}
	return func(r *request, body []byte, o *outcome) {
		if r.kind == "batch" || o.err != nil {
			keepAll(r, body, o)
			return
		}
		o.sum = sha256.Sum256(body)
		mu.Lock()
		prev, seen := first[string(r.body)]
		if !seen {
			first[string(r.body)] = o.sum
		}
		mu.Unlock()
		if !seen || prev != o.sum {
			keepAll(r, body, o)
		}
	}
}

// traceID is the W3C trace ID the traced run sends with request i.
func traceID(i int) string { return fmt.Sprintf("5eedbe9c%024x", i+1) }

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentile is the highest of p99, p95, p90, p75 and p50 with at least
// ten samples beyond it at n samples.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
