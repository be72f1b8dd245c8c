// Package obs is the observability layer of the framework: a
// zero-dependency metrics registry (counters, gauges, log-spaced duration
// histograms) and a pluggable tracing front end (spans and point events
// dispatched to a Sink).
//
// Design constraints, in order:
//
//  1. The disabled path is free. With no Sink installed, StartSpan returns
//     a zero Span whose methods do nothing, perform no time.Now call and
//     allocate nothing, so instrumentation can live inside solver inner
//     loops without a build tag. Counters are always live (a single atomic
//     add), which keeps metrics deterministic whether or not tracing is on.
//  2. Metrics are deterministic. Counter totals depend only on the work
//     performed, never on scheduling: the same run produces bit-identical
//     counts for any GOMAXPROCS.
//  3. Everything is stdlib-only.
//
// The package-level default registry and sink serve the whole process;
// tests may build private Registries. CLIs install sinks via SetSink and
// dump the registry with Snapshot/WriteJSON.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KindSpan is a completed span: Dur holds its length and Time its end.
	KindSpan Kind = iota
	// KindPoint is an instantaneous event.
	KindPoint
)

func (k Kind) String() string {
	if k == KindPoint {
		return "point"
	}
	return "span"
}

// Attr is one key/value annotation on an event. Exactly one of the value
// fields is meaningful, selected by the constructor.
type Attr struct {
	Key string
	I   int64
	F   float64
	S   string
	T   byte // 'i', 'f' or 's'
}

// I64 builds an integer attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, I: v, T: 'i'} }

// F64 builds a float attribute.
func F64(key string, v float64) Attr { return Attr{Key: key, F: v, T: 'f'} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, S: v, T: 's'} }

// Value returns the dynamically-typed attribute value.
func (a Attr) Value() any {
	switch a.T {
	case 'i':
		return a.I
	case 'f':
		return a.F
	default:
		return a.S
	}
}

// Event is one trace record handed to a Sink. Attrs is never retained by
// the tracer after Emit returns; sinks that buffer must copy it.
type Event struct {
	Time  time.Time // end time for spans, occurrence time for points
	Name  string
	Kind  Kind
	Dur   time.Duration // span length; 0 for points
	Trace TraceID       // request correlation; zero for untraced work
	Attrs []Attr
}

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls: search workers and Monte Carlo samplers trace in parallel.
type Sink interface {
	Emit(Event)
}

// sinkBox wraps a Sink so the global can be swapped atomically.
type sinkBox struct{ s Sink }

var globalSink atomic.Pointer[sinkBox]

// SetSink installs the process-wide trace sink. nil restores the no-op
// tracer. It returns the previously installed sink (nil if none).
func SetSink(s Sink) Sink {
	var old *sinkBox
	if s == nil {
		old = globalSink.Swap(nil)
	} else {
		old = globalSink.Swap(&sinkBox{s: s})
	}
	if old == nil {
		return nil
	}
	return old.s
}

// CurrentSink returns the installed sink, or nil when tracing is off.
func CurrentSink() Sink {
	if b := globalSink.Load(); b != nil {
		return b.s
	}
	return nil
}

// Enabled reports whether a trace sink is installed. Hot paths use it to
// skip attribute computation that is only needed for tracing.
func Enabled() bool { return globalSink.Load() != nil }

// maxSpanAttrs is the fixed attribute capacity of a Span. Instrumentation
// sites use at most this many annotations; the cap keeps Span stack-only.
// (The core.search run span is the widest user and fills every slot:
// capacity/method/chunks/workers at start plus evaluated/pruned_bound/
// bound_efficiency/units_prepared/mask_classes/bounds at end.)
const maxSpanAttrs = 10

// mSpanAttrsDropped counts annotations a live span dropped because it
// already held maxSpanAttrs: a nonzero value means some instrumentation
// site outgrew the cap and its trace lacks attributes. End adds a span's
// drops, so the disabled path stays free and the inlined annotation
// methods stay as small as a plain store.
var mSpanAttrsDropped = NewCounter("obs.span.attrs_dropped")

// Span is an in-flight trace span. The zero Span (returned when tracing is
// disabled) is inert: all methods are cheap no-ops. Span is a value type —
// keep it on the stack and call End exactly once; do not copy it after
// annotating.
type Span struct {
	sink  Sink
	name  string
	start time.Time
	trace TraceID
	attrs [maxSpanAttrs]Attr
	n     int // annotations made; those past maxSpanAttrs are dropped
}

// StartSpan opens a span against the process sink. When tracing is
// disabled it returns the zero Span without reading the clock.
func StartSpan(name string) Span {
	b := globalSink.Load()
	if b == nil {
		return Span{}
	}
	return Span{sink: b.s, name: name, start: time.Now()}
}

// StartSpanCtx opens a span carrying the trace ID stored in ctx (see
// ContextWithTrace), so every span below one request shares its ID. Like
// StartSpan, the disabled path returns the zero Span without reading the
// clock or the context, and allocates nothing.
func StartSpanCtx(ctx context.Context, name string) Span {
	b := globalSink.Load()
	if b == nil {
		return Span{}
	}
	return Span{sink: b.s, name: name, start: time.Now(), trace: TraceIDFrom(ctx)}
}

// On reports whether the span is live (tracing was enabled at StartSpan).
func (sp *Span) On() bool { return sp.sink != nil }

func (sp *Span) add(a Attr) {
	if sp.sink == nil {
		return
	}
	if sp.n < maxSpanAttrs {
		sp.attrs[sp.n] = a
	}
	sp.n++
}

// Int annotates the span with an integer attribute.
func (sp *Span) Int(key string, v int64) { sp.add(Attr{Key: key, I: v, T: 'i'}) }

// Float annotates the span with a float attribute.
func (sp *Span) Float(key string, v float64) { sp.add(Attr{Key: key, F: v, T: 'f'}) }

// Str annotates the span with a string attribute.
func (sp *Span) Str(key, v string) { sp.add(Attr{Key: key, S: v, T: 's'}) }

// End closes the span and emits it. Calling End on a zero Span does
// nothing.
func (sp *Span) End() {
	if sp.sink == nil {
		return
	}
	end := time.Now()
	n := min(sp.n, maxSpanAttrs)
	if n < sp.n {
		mSpanAttrsDropped.Add(int64(sp.n - n))
	}
	var attrs []Attr
	if n > 0 {
		// Copy out of the stack array: the Event may outlive the Span.
		attrs = make([]Attr, n)
		copy(attrs, sp.attrs[:n])
	}
	sp.sink.Emit(Event{
		Time:  end,
		Name:  sp.name,
		Kind:  KindSpan,
		Dur:   end.Sub(sp.start),
		Trace: sp.trace,
		Attrs: attrs,
	})
}

// Point emits an instantaneous event with the given attributes. When
// tracing is disabled the variadic slice is the only cost; guard call
// sites with Enabled() where that matters.
func Point(name string, attrs ...Attr) {
	b := globalSink.Load()
	if b == nil {
		return
	}
	b.s.Emit(Event{Time: time.Now(), Name: name, Kind: KindPoint, Attrs: attrs})
}

// PointCtx emits an instantaneous event tagged with the trace ID carried by
// ctx, correlating the point with the request whose work produced it.
func PointCtx(ctx context.Context, name string, attrs ...Attr) {
	b := globalSink.Load()
	if b == nil {
		return
	}
	b.s.Emit(Event{Time: time.Now(), Name: name, Kind: KindPoint, Trace: TraceIDFrom(ctx), Attrs: attrs})
}
