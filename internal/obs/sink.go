package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// jsonEvent is the wire form of one JSON-lines trace record.
type jsonEvent struct {
	TS    string         `json:"ts"`
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Trace string         `json:"trace,omitempty"`
	DurNS int64          `json:"dur_ns,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// JSONLSink writes one JSON object per event, newline-delimited — the
// machine-readable trace format behind the CLIs' -trace flag. It is safe
// for concurrent use; each event is written in a single Write call.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing JSON lines to w. The caller owns w
// (and closes it, if it is a file) after the sink is uninstalled.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	je := jsonEvent{
		TS:    ev.Time.UTC().Format(time.RFC3339Nano),
		Kind:  ev.Kind.String(),
		Name:  ev.Name,
		DurNS: int64(ev.Dur),
	}
	if !ev.Trace.IsZero() {
		je.Trace = ev.Trace.String()
	}
	if len(ev.Attrs) > 0 {
		je.Attrs = make(map[string]any, len(ev.Attrs))
		for _, a := range ev.Attrs {
			je.Attrs[a.Key] = a.Value()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Encode appends '\n'; errors (closed file at shutdown) are dropped —
	// tracing must never fail the computation it observes.
	_ = s.enc.Encode(je)
}

// SlogSink forwards events to a slog.Logger at Debug level — the
// human-readable text sink behind the CLIs' -debug flag.
type SlogSink struct{ l *slog.Logger }

// NewTextSink returns a slog-backed sink writing logfmt-style text to w.
func NewTextSink(w io.Writer) *SlogSink {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})
	return &SlogSink{l: slog.New(h)}
}

// Emit implements Sink.
func (s *SlogSink) Emit(ev Event) {
	args := make([]any, 0, 4+2*len(ev.Attrs))
	args = append(args, "kind", ev.Kind.String())
	if ev.Kind == KindSpan {
		args = append(args, "dur", ev.Dur)
	}
	if !ev.Trace.IsZero() {
		args = append(args, "trace", ev.Trace.String())
	}
	for _, a := range ev.Attrs {
		args = append(args, a.Key, a.Value())
	}
	s.l.Debug(ev.Name, args...)
}

// MultiSink fans one event out to several sinks (e.g. -trace plus -debug).
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// CollectorSink buffers events in memory for tests and reconciliation
// checks. Safe for concurrent Emit.
type CollectorSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink, deep-copying Attrs (the tracer already hands over
// a fresh slice, but sinks must not rely on that).
func (c *CollectorSink) Emit(ev Event) {
	attrs := make([]Attr, len(ev.Attrs))
	copy(attrs, ev.Attrs)
	ev.Attrs = attrs
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (c *CollectorSink) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}
