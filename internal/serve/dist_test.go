package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the readiness body and the Manager's side of the
// content-addressed result store (internal/dist implements it).

// TestReadyzBody pins the readiness JSON: the queue and running-job load
// signals, flipping to draining (and 503) on shutdown.
func TestReadyzBody(t *testing.T) {
	mgr := NewManager(Config{QueueDepth: 7, Runners: 3})
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	get := func() (Readiness, int) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rd Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
			t.Fatalf("readyz body did not decode: %v", err)
		}
		return rd, resp.StatusCode
	}

	rd, code := get()
	if code != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200", code)
	}
	if !rd.Ready || rd.Draining || rd.QueueCap != 7 || rd.Runners != 3 {
		t.Errorf("readiness = %+v, want ready with queue_cap 7, runners 3", rd)
	}
	if rd.QueueDepth != 0 || rd.RunningJobs != 0 {
		t.Errorf("idle readiness reports load: %+v", rd)
	}

	shutdownNow(t, mgr)
	rd, code = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", code)
	}
	if rd.Ready || !rd.Draining {
		t.Errorf("draining readiness = %+v", rd)
	}
}

// countingStore is an in-memory ResultStore for hook tests.
type countingStore struct {
	mu   sync.Mutex
	m    map[string]json.RawMessage
	hits atomic.Int64
}

func (s *countingStore) key(cell Cell, scale int) string {
	return cell.String() + "@" + strconv.Itoa(scale)
}

func (s *countingStore) Get(cell Cell, scale int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[s.key(cell, scale)]
	if ok {
		s.hits.Add(1)
	}
	return res, ok
}

func (s *countingStore) Put(cell Cell, scale int, res json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[s.key(cell, scale)] = res
}

// engineWork sums what the engine recorded in a registry: every
// progress.<phase> completion, the instructions both machine models
// simulated, and the lookups on the suite's trace, annotation and
// simulation caches (flushed by FinalizeMetrics).
func engineWork(m *Manager) (phases, instructions, cacheGets int64) {
	m.FinalizeMetrics()
	snap := m.Metrics().Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "progress.") {
			phases += v
		}
	}
	instructions = snap.Counters["sim620.instructions"] + snap.Counters["sim21164.instructions"]
	for name, g := range snap.Gauges {
		if strings.HasPrefix(name, "cache.") && strings.HasSuffix(name, ".gets") {
			cacheGets += g.Value
		}
	}
	return phases, instructions, cacheGets
}

// TestStoreShortCircuitsCompute pins the store hook: a repeat job is served
// entirely from the store — the engine is not even asked, so its counters
// and cache lookups stay put — and its streamed payload bytes are identical
// to the first run's.
func TestStoreShortCircuitsCompute(t *testing.T) {
	store := &countingStore{m: map[string]json.RawMessage{}}
	mgr := NewManager(Config{Store: store})
	defer shutdownNow(t, mgr)
	srv := httptest.NewServer(NewHandler(mgr))
	defer srv.Close()

	spec := JobSpec{
		Benchmarks: []string{"quick"},
		Machines:   []string{Machine21164, Machine620},
		Configs:    []string{ConfigNone, "Simple"},
	}
	run := func() []Event {
		t.Helper()
		st, resp := submit(t, srv.Client(), srv.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		return streamEvents(t, srv.Client(), srv.URL, st.ID)
	}

	first := run()
	phases, insts, gets := engineWork(mgr)
	if phases == 0 || insts == 0 || gets == 0 {
		t.Fatalf("first run left no engine trace: %d phases, %d instructions, %d cache gets", phases, insts, gets)
	}

	second := run()
	p2, i2, g2 := engineWork(mgr)
	if p2 != phases || i2 != insts || g2 != gets {
		t.Errorf("repeat run reached the engine: phases %d→%d, instructions %d→%d, cache gets %d→%d",
			phases, p2, insts, i2, gets, g2)
	}
	wantHits := int64(len(spec.Cells()))
	if n := store.hits.Load(); n != wantHits {
		t.Errorf("store hits = %d, want %d", n, wantHits)
	}
	if len(first) != len(second) {
		t.Fatalf("runs streamed %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i].Result, second[i].Result) {
			t.Errorf("cell %d bytes differ between cached and computed runs", i)
		}
	}
}
