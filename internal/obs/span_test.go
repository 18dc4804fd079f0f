package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanChannelGoldenSchema pins the JSONL schema of the span channel: one
// "span" event per completed span with exactly the trace/span/parent/name/
// timing keys (plus chan/msg and user attrs), no time/level noise.
func TestSpanChannelGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, ChanSpan)
	ctx := WithTrace(context.Background(), "trace-1", tr, nil)

	jctx, endJob := StartSpan(ctx, "job", slog.String("id", "job-000001"))
	_, endCell := StartSpan(jctx, "cell", slog.Int("index", 0))
	endCell()
	endJob()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	// Spans complete inner-first: the cell line precedes the job line.
	var cell, job map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &cell); err != nil {
		t.Fatalf("cell line not valid JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &job); err != nil {
		t.Fatalf("job line not valid JSON: %v", err)
	}

	wantKeys := []string{"msg", "chan", "trace", "span", "parent", "name", "start_us", "dur_us"}
	for _, k := range wantKeys {
		if _, ok := cell[k]; !ok {
			t.Errorf("cell event missing key %q: %v", k, cell)
		}
	}
	for _, k := range []string{"time", "level"} {
		if _, ok := cell[k]; ok {
			t.Errorf("span event carries %q; records should be lean", k)
		}
	}
	if cell["msg"] != "span" || cell["chan"] != "span" {
		t.Errorf("cell event not on the span channel: %v", cell)
	}
	if cell["trace"] != "trace-1" || job["trace"] != "trace-1" {
		t.Errorf("trace IDs wrong: cell %v job %v", cell["trace"], job["trace"])
	}
	if cell["name"] != "cell" || job["name"] != "job" {
		t.Errorf("span names wrong: cell %v job %v", cell["name"], job["name"])
	}
	if cell["index"] != float64(0) || job["id"] != "job-000001" {
		t.Errorf("user attrs lost: cell %v job %v", cell, job)
	}
	// Parenting: job is the root (parent 0), cell is its child.
	if job["parent"] != float64(0) {
		t.Errorf("job parent = %v, want 0", job["parent"])
	}
	if cell["parent"] != job["span"] {
		t.Errorf("cell parent = %v, want job span %v", cell["parent"], job["span"])
	}
	if cell["span"] == job["span"] {
		t.Errorf("cell and job share span ID %v", cell["span"])
	}
}

// TestCompleteSpan checks the one-shot form parents correctly and reports
// the given start.
func TestCompleteSpan(t *testing.T) {
	rec := NewFlightRecorder(8)
	ctx := WithTrace(context.Background(), "t", nil, rec)
	jctx, endJob := StartSpan(ctx, "job")
	start := time.Now().Add(-time.Second)
	CompleteSpan(jctx, "queue-wait", start)
	endJob()

	spans, dropped := rec.Snapshot()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("got %d spans (dropped %d), want 2 (0)", len(spans), dropped)
	}
	qw, job := spans[0], spans[1]
	if qw.Name != "queue-wait" || job.Name != "job" {
		t.Fatalf("span order wrong: %q, %q", qw.Name, job.Name)
	}
	if qw.Parent != job.ID {
		t.Errorf("queue-wait parent = %d, want job span %d", qw.Parent, job.ID)
	}
	if !qw.Start.Equal(start) {
		t.Errorf("queue-wait start = %v, want %v", qw.Start, start)
	}
	if qw.Duration < time.Second {
		t.Errorf("queue-wait duration = %v, want >= 1s", qw.Duration)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		rec.Record(Span{ID: uint64(i)})
	}
	spans, dropped := rec.Snapshot()
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	if len(spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(7 + i); s.ID != want {
			t.Errorf("spans[%d].ID = %d, want %d (oldest-first recording order)", i, s.ID, want)
		}
	}

	if def := NewFlightRecorder(0); def.cap != DefaultFlightSpans {
		t.Errorf("zero capacity selected %d, want DefaultFlightSpans", def.cap)
	}
	var nilRec *FlightRecorder
	nilRec.Record(Span{})
	if s, d := nilRec.Snapshot(); s != nil || d != 0 {
		t.Error("nil recorder not a no-op")
	}
}

// TestSpanDisabledPaths checks the off path: no scope installed when both
// sinks are absent, and span calls without a scope do nothing.
func TestSpanDisabledPaths(t *testing.T) {
	ctx := context.Background()
	if got := WithTrace(ctx, "t", nil, nil); got != ctx {
		t.Error("WithTrace with no sinks should return ctx unchanged")
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf, ChanLVPT) // span channel off
	if got := WithTrace(ctx, "t", tr, nil); got != ctx {
		t.Error("WithTrace with span channel off should return ctx unchanged")
	}
	if TraceID(ctx) != "" {
		t.Error("TraceID non-empty without a scope")
	}
	sctx, end := StartSpan(ctx, "x")
	if sctx != ctx {
		t.Error("StartSpan without scope should return ctx unchanged")
	}
	end()
	CompleteSpan(ctx, "x", time.Now())
	if buf.Len() != 0 {
		t.Errorf("disabled span path emitted %d bytes", buf.Len())
	}

	// With a scope, but the tracer channel off and a recorder present: the
	// recorder still gets spans, the tracer stays silent.
	rec := NewFlightRecorder(4)
	rctx := WithTrace(ctx, "t", tr, rec)
	if TraceID(rctx) != "t" {
		t.Errorf("TraceID = %q, want t", TraceID(rctx))
	}
	_, end = StartSpan(rctx, "x")
	end()
	if spans, _ := rec.Snapshot(); len(spans) != 1 {
		t.Errorf("recorder got %d spans, want 1", len(spans))
	}
	if buf.Len() != 0 {
		t.Errorf("tracer with span channel off emitted %d bytes", buf.Len())
	}
}

// TestSpanConcurrent races span creation across goroutines sharing one
// scope and checks every span ID is unique (run under -race via check-obs).
func TestSpanConcurrent(t *testing.T) {
	rec := NewFlightRecorder(64 * 50 * 2)
	ctx := WithTrace(context.Background(), "t", nil, rec)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cctx, end := StartSpan(ctx, "outer", slog.Int("g", g))
				CompleteSpan(cctx, "inner", time.Now())
				end()
			}
		}(g)
	}
	wg.Wait()
	spans, dropped := rec.Snapshot()
	if dropped != 0 || len(spans) != 64*50*2 {
		t.Fatalf("got %d spans (dropped %d), want %d", len(spans), dropped, 64*50*2)
	}
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Errorf("two trace IDs collide: %q", a)
	}
	if len(a) != 16 {
		t.Errorf("trace ID %q has length %d, want 16", a, len(a))
	}
	for _, r := range a {
		if !strings.ContainsRune("0123456789abcdef", r) {
			t.Errorf("trace ID %q not lowercase hex", a)
		}
	}
}

// TestSpanIdentityDiscipline spot-checks that span instrumentation cannot
// perturb results: the same computation run with and without a scope sees
// identical context values other than the scope key itself.
func TestSpanIdentityDiscipline(t *testing.T) {
	type userKey struct{}
	base := context.WithValue(context.Background(), userKey{}, 42)
	traced := WithTrace(base, "t", nil, NewFlightRecorder(4))
	sctx, end := StartSpan(traced, "x")
	defer end()
	if v, _ := sctx.Value(userKey{}).(int); v != 42 {
		t.Errorf("user context value lost under span scope: %v", v)
	}
}
