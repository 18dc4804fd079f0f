package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped span tracing. A trace is one request's tree of timed spans
// (job → cells → pipeline phases), identified by a trace ID that the daemon
// echoes as X-Request-Id. The scope travels by context.Context: WithTrace
// installs it, StartSpan opens a child span, CompleteSpan records an
// already-timed one. Completed spans go to two sinks — the JSONL Tracer's
// `span` channel, and a bounded per-request FlightRecorder that backs the
// timeline endpoint — either of which may be absent.
//
// The off path keeps the tracer discipline: a context without a scope makes
// StartSpan/CompleteSpan a value lookup and a nil compare, no allocation,
// and WithTrace with both sinks disabled returns ctx unchanged so the whole
// request never carries a scope.

// Span is one completed span of a trace. IDs are unique within the trace;
// Parent is 0 for the root span.
type Span struct {
	Trace    string
	ID       uint64
	Parent   uint64
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []slog.Attr
}

// DefaultFlightSpans is the FlightRecorder capacity when none is given.
const DefaultFlightSpans = 256

// FlightRecorder keeps the last N completed spans of one request in a ring
// buffer, so a finished (or stuck) job can be post-mortemed without tracing
// having been enabled up front. Recording is mutex-guarded and span-grained
// (never per-record), so contention is negligible.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	spans   []Span
	next    int
	full    bool
	dropped int64
}

// NewFlightRecorder returns a recorder keeping the last `capacity` spans
// (<= 0 selects DefaultFlightSpans).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightSpans
	}
	return &FlightRecorder{cap: capacity}
}

// Record stores one completed span, evicting the oldest when full. A nil
// recorder is a no-op.
func (r *FlightRecorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, s)
	} else {
		r.spans[r.next] = s
		r.next = (r.next + 1) % r.cap
		r.full = true
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot returns the recorded spans in recording order, plus how many
// older spans the ring has evicted.
func (r *FlightRecorder) Snapshot() (spans []Span, dropped int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	if r.full {
		out = append(out, r.spans[r.next:]...)
		out = append(out, r.spans[:r.next:r.next]...)
	} else {
		out = append(out, r.spans...)
	}
	return out, r.dropped
}

// spanScope is the context-carried tracing state: the trace identity, both
// sinks, the shared span-ID allocator, and the currently open span (the
// parent for anything started under this context).
type spanScope struct {
	trace  string
	tracer *Tracer
	rec    *FlightRecorder
	seq    *atomic.Uint64
	epoch  time.Time
	span   uint64
}

type scopeKey struct{}

// WithTrace installs a span scope on ctx: spans opened under it emit to the
// tracer's span channel and/or the recorder. When the span channel is off
// and rec is nil, ctx is returned unchanged — the request carries no scope
// and every span call under it is a no-op.
func WithTrace(ctx context.Context, traceID string, tr *Tracer, rec *FlightRecorder) context.Context {
	if rec == nil && !tr.Enabled(ChanSpan) {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, &spanScope{
		trace:  traceID,
		tracer: tr,
		rec:    rec,
		seq:    new(atomic.Uint64),
		epoch:  time.Now(),
	})
}

// TraceID returns ctx's trace ID, or "" without a scope.
func TraceID(ctx context.Context) string {
	if sc, _ := ctx.Value(scopeKey{}).(*spanScope); sc != nil {
		return sc.trace
	}
	return ""
}

func nopEnd() {}

// StartSpan opens a span under ctx's scope and returns a context carrying
// it (children started from that context parent here) plus the function
// that completes it. Without a scope it returns ctx unchanged and a shared
// no-op: zero allocations, so instrumentation can stay in place.
func StartSpan(ctx context.Context, name string, attrs ...slog.Attr) (context.Context, func()) {
	sc, _ := ctx.Value(scopeKey{}).(*spanScope)
	if sc == nil {
		return ctx, nopEnd
	}
	child := &spanScope{
		trace:  sc.trace,
		tracer: sc.tracer,
		rec:    sc.rec,
		seq:    sc.seq,
		epoch:  sc.epoch,
		span:   sc.seq.Add(1),
	}
	parent := sc.span
	start := time.Now()
	return context.WithValue(ctx, scopeKey{}, child), func() {
		child.emit(name, child.span, parent, start, time.Since(start), attrs)
	}
}

// CompleteSpan records a span that ran from start until now as a child of
// ctx's current span — the one-shot form for phases that are already timed.
// Without a scope it is a value lookup and a nil compare.
func CompleteSpan(ctx context.Context, name string, start time.Time, attrs ...slog.Attr) {
	sc, _ := ctx.Value(scopeKey{}).(*spanScope)
	if sc == nil {
		return
	}
	sc.emit(name, sc.seq.Add(1), sc.span, start, time.Since(start), attrs)
}

// emit delivers one completed span to both sinks.
func (sc *spanScope) emit(name string, id, parent uint64, start time.Time, d time.Duration, attrs []slog.Attr) {
	sc.rec.Record(Span{
		Trace: sc.trace, ID: id, Parent: parent, Name: name,
		Start: start, Duration: d, Attrs: attrs,
	})
	if sc.tracer.Enabled(ChanSpan) {
		ev := make([]slog.Attr, 0, len(attrs)+6)
		ev = append(ev,
			slog.String("trace", sc.trace),
			slog.Uint64("span", id),
			slog.Uint64("parent", parent),
			slog.String("name", name),
			slog.Int64("start_us", start.Sub(sc.epoch).Microseconds()),
			slog.Int64("dur_us", d.Microseconds()),
		)
		ev = append(ev, attrs...)
		sc.tracer.Emit(ChanSpan, "span", ev...)
	}
}

var traceIDFallback atomic.Uint64

// NewTraceID mints a 16-hex-character random trace ID (a process-unique
// counter ID if the system entropy source fails).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("trace-%d", traceIDFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}
