package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; Add is a single atomic operation and therefore both
// allocation-free and safe from any goroutine.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a settable float metric (last-write-wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Add atomically adds delta to the gauge and returns the new value. It lets
// several concurrent owners share one gauge as an in-flight total: each adds
// its contribution on entry and subtracts it on exit, instead of clobbering
// the others with Set.
func (g *Gauge) Add(delta float64) float64 {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return v
		}
	}
}

func (g *Gauge) reset() { g.bits.Store(0) }

// histBuckets is the fixed log-spaced duration bucket ladder shared by all
// histograms: powers of two from 250 ns up to ~8.6 s, plus an overflow
// bucket. A fixed ladder keeps Observe allocation-free and makes every
// histogram in a dump directly comparable.
var histBuckets = func() [26]time.Duration {
	var b [26]time.Duration
	d := 250 * time.Nanosecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// Histogram accumulates durations into the fixed log-spaced ladder.
// The zero value is ready to use.
type Histogram struct {
	count  atomic.Int64
	sumNS  atomic.Int64
	bucket [len(histBuckets) + 1]atomic.Int64 // +1 overflow
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	for i, ub := range histBuckets {
		if d <= ub {
			h.bucket[i].Add(1)
			return
		}
	}
	h.bucket[len(histBuckets)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sumNS.Store(0)
	for i := range h.bucket {
		h.bucket[i].Store(0)
	}
}

// Registry is a namespace of metrics. Metrics register once (usually from
// package-level var initializers) and live for the process lifetime;
// lookup by name is for reporting paths, not hot loops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value, or 0 if it does not
// exist. Reporting helper (progress tickers, tests).
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// GaugeValue returns the named gauge's value, or 0 if absent.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		return 0
	}
	return g.Value()
}

// Reset zeroes every registered metric (the metrics stay registered).
// Intended for tests that compare runs.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// NewCounter registers a counter in the default registry. Call from
// package-level var initializers of instrumented packages.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// HistSnapshot is the serializable state of one histogram.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	SumSec  float64       `json:"sum_s"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: observations ≤ LeSec
// seconds (not cumulative). LeSec is +Inf-serialized as le_s omitted.
type BucketCount struct {
	LeSec float64 `json:"le_s,omitempty"` // upper bound; 0 means overflow
	N     int64   `json:"n"`
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically for serialization and comparison.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.Count(), SumSec: h.Sum().Seconds()}
		for i := range h.bucket {
			n := h.bucket[i].Load()
			if n == 0 {
				continue
			}
			bc := BucketCount{N: n}
			if i < len(histBuckets) {
				bc.LeSec = histBuckets[i].Seconds()
			}
			hs.Buckets = append(hs.Buckets, bc)
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (map keys sorted by
// encoding/json, so the output is deterministic for fixed values).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LabeledName builds a registry name carrying Prometheus-style labels:
// base{k="v",k2="v2"}. The labeled name is an ordinary registry key — the
// registry itself stays a flat namespace — but Snapshot.WriteProm recognizes
// the form and emits the labels as real Prometheus labels on the family
// named by base. kv is alternating key, value pairs; pairs are sorted by key
// so any argument order yields the same series, and values are escaped per
// the exposition format (backslash, double quote, newline). Label keys are
// sanitized like metric names. Callers on hot paths should build the name
// once and cache the returned metric pointer.
func LabeledName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{promName(kv[i]), kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value for the Prometheus text exposition
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitLabeledName splits a registry name of the LabeledName form into the
// family base and the brace-less label block; labels is "" for plain names.
func splitLabeledName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// promName maps a dotted metric name to the Prometheus exposition charset:
// every character outside [a-zA-Z0-9_:] becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeries is one sample line's identity within a family: the label
// block (without braces, possibly empty) and the registry name it came
// from.
type promSeries struct {
	labels string
	name   string
}

// groupFamilies buckets registry names by Prometheus family (promName of
// the base, before any LabeledName block) and returns the sorted family
// list with each family's series sorted by label block — the deterministic
// emission order of WriteProm.
func groupFamilies(names []string) (ordered []string, byFamily map[string][]promSeries) {
	byFamily = make(map[string][]promSeries)
	for _, n := range names {
		base, labels := splitLabeledName(n)
		fam := promName(base)
		byFamily[fam] = append(byFamily[fam], promSeries{labels: labels, name: n})
	}
	ordered = make([]string, 0, len(byFamily))
	for fam, series := range byFamily {
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		ordered = append(ordered, fam)
	}
	sort.Strings(ordered)
	return ordered, byFamily
}

// WriteProm renders the snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as cumulative
// `_bucket{le=...}` series with `_sum`/`_count`. Registry names built with
// LabeledName become real labeled series: every name sharing a base is one
// family with a single # TYPE line and one sample (or bucket set) per label
// combination. Families are emitted in sorted name order and series in
// sorted label order, so the output is deterministic for fixed values.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	// sample renders "name value" with an optional pre-rendered label block
	// and optional extra label (the histogram `le`).
	sample := func(fam, labels, extra, value string) {
		switch {
		case labels == "" && extra == "":
			pf("%s %s\n", fam, value)
		case labels == "":
			pf("%s{%s} %s\n", fam, extra, value)
		case extra == "":
			pf("%s{%s} %s\n", fam, labels, value)
		default:
			pf("%s{%s,%s} %s\n", fam, labels, extra, value)
		}
	}

	counterNames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		counterNames = append(counterNames, n)
	}
	ordered, families := groupFamilies(counterNames)
	for _, fam := range ordered {
		pf("# TYPE %s counter\n", fam)
		for _, sr := range families[fam] {
			sample(fam, sr.labels, "", fmt.Sprintf("%d", s.Counters[sr.name]))
		}
	}

	gaugeNames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gaugeNames = append(gaugeNames, n)
	}
	ordered, families = groupFamilies(gaugeNames)
	for _, fam := range ordered {
		pf("# TYPE %s gauge\n", fam)
		for _, sr := range families[fam] {
			sample(fam, sr.labels, "", fmt.Sprintf("%g", s.Gauges[sr.name]))
		}
	}

	histNames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		histNames = append(histNames, n)
	}
	ordered, families = groupFamilies(histNames)
	for _, base := range ordered {
		fam := base + "_seconds"
		pf("# TYPE %s histogram\n", fam)
		for _, sr := range families[base] {
			h := s.Histograms[sr.name]
			cum := int64(0)
			for _, b := range h.Buckets {
				cum += b.N
				if b.LeSec == 0 { // overflow bucket folds into +Inf below
					continue
				}
				sample(fam+"_bucket", sr.labels, fmt.Sprintf("le=\"%g\"", b.LeSec), fmt.Sprintf("%d", cum))
			}
			sample(fam+"_bucket", sr.labels, `le="+Inf"`, fmt.Sprintf("%d", h.Count))
			sample(fam+"_sum", sr.labels, "", fmt.Sprintf("%g", h.SumSec))
			sample(fam+"_count", sr.labels, "", fmt.Sprintf("%d", h.Count))
		}
	}
	return err
}

// StatsLine renders "name=value" pairs for the named counters, skipping
// absent ones — a compact one-line summary for CLIs and examples.
func (r *Registry) StatsLine(names ...string) string {
	var b strings.Builder
	for _, name := range names {
		r.mu.RLock()
		c := r.counters[name]
		r.mu.RUnlock()
		if c == nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.Value())
	}
	return b.String()
}
