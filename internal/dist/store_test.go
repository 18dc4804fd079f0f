package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lvp/internal/obs"
	"lvp/internal/serve"
)

func simCell(bench, machine, config string) serve.Cell {
	return serve.Cell{Kind: "sim", Bench: bench, Machine: machine, Config: config}
}

// TestCellKeyCanonical pins the content address: stable for the same spec,
// distinct for every field that changes result bytes, and scale 0 aliases
// scale 1 (the engine's clamp) so the same work never has two addresses.
func TestCellKeyCanonical(t *testing.T) {
	base := simCell("quick", serve.Machine21164, serve.ConfigNone)
	key := CellKey(base, 1)
	if key != CellKey(base, 1) {
		t.Error("same cell hashed to different keys")
	}
	if len(key) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", key)
	}
	if CellKey(base, 0) != key {
		t.Error("scale 0 should alias scale 1")
	}

	variants := []struct {
		name string
		cell serve.Cell
		sc   int
	}{
		{"bench", simCell("grep", serve.Machine21164, serve.ConfigNone), 1},
		{"machine", simCell("quick", serve.Machine620, serve.ConfigNone), 1},
		{"config", simCell("quick", serve.Machine21164, "Simple"), 1},
		{"kind", serve.Cell{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{1}}, 1},
		{"depths", serve.Cell{Kind: "locality", Bench: "quick", Target: "ppc", Depths: []int{1, 4}}, 1},
		{"predictor", serve.Cell{Kind: "zoo", Bench: "quick", Predictor: "stride"}, 1},
		{"scale", base, 2},
	}
	seen := map[string]string{key: "base"}
	for _, v := range variants {
		k := CellKey(v.cell, v.sc)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", v.name, prev)
		}
		seen[k] = v.name
	}
}

// TestStoreLRUEviction pins the memory bound: the coldest entry leaves when
// capacity is exceeded, and (with no disk) an evicted key misses.
func TestStoreLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(StoreConfig{Entries: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"aa1", "bb2", "cc3"} {
		s.PutKey(k, json.RawMessage(`{"k":"`+k+`"}`))
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if got := reg.Counter("dist.store.evict").Value(); got != 1 {
		t.Errorf("evict counter = %d, want 1", got)
	}
	if _, ok := s.GetKey("aa1"); ok {
		t.Error("evicted key still hits")
	}
	if _, ok := s.GetKey("cc3"); !ok {
		t.Error("fresh key misses")
	}

	// Touching the cold end first makes the middle entry the victim.
	s.GetKey("bb2")
	s.PutKey("dd4", json.RawMessage(`{}`))
	if _, ok := s.GetKey("bb2"); !ok {
		t.Error("recently-used key was evicted")
	}
	if _, ok := s.GetKey("cc3"); ok {
		t.Error("cold key survived over recently-used one")
	}
}

// TestStoreDiskPersistence pins the restart story: a fresh Store over the
// same directory serves the old entries (counted as disk hits), and a torn
// or corrupted file degrades to a miss rather than a bad result.
func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cell := simCell("quick", serve.Machine21164, serve.ConfigNone)
	res := json.RawMessage(`{"instructions": 42}`)

	s1, err := NewStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(cell, 1, res)

	reg := obs.NewRegistry()
	s2, err := NewStore(StoreConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(cell, 1)
	if !ok {
		t.Fatal("restarted store misses a persisted entry")
	}
	if !bytes.Equal(got, res) {
		t.Errorf("restarted store returned %s, want %s", got, res)
	}
	if reg.Counter("dist.store.disk_hit").Value() != 1 {
		t.Error("disk hit not counted")
	}
	// Now promoted: a second read is a pure memory hit.
	if _, ok := s2.Get(cell, 1); !ok {
		t.Fatal("promoted entry misses")
	}
	if got := reg.Counter("dist.store.disk_hit").Value(); got != 1 {
		t.Errorf("disk_hit = %d after promotion, want still 1", got)
	}

	// Corrupt the file on disk: a fresh store must treat it as a miss.
	key := CellKey(cell, 1)
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte(`{"instructions":`), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewStore(StoreConfig{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(cell, 1); ok {
		t.Error("corrupted disk entry served as a hit")
	}
}

func shutdownNow(t *testing.T, m *serve.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("manager shutdown: %v", err)
	}
}

// runJob submits spec, waits for the job to finish, and returns the raw
// NDJSON results body — the byte stream under the identity contract.
func runJob(t *testing.T, base string, spec serve.JobSpec) []byte {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// The results endpoint streams until the job is done, so one GET both
	// waits and captures the canonical byte stream.
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// storeSpec exercises every cell kind: four sims, a locality sweep, and a
// zoo cell.
func storeSpec() serve.JobSpec {
	return serve.JobSpec{
		Benchmarks:      []string{"quick"},
		Machines:        []string{serve.Machine21164, serve.Machine620},
		Configs:         []string{serve.ConfigNone, "Simple"},
		LocalityTargets: []string{"ppc"},
		LocalityDepths:  []int{1, 4},
		Predictors:      []string{"stride"},
	}
}

// engineWork sums what a registry's engine counters say was computed: every
// progress.<phase> completion (trace builds, annotations, simulations, zoo
// sweeps) and the instructions both machine models simulated.
func engineWork(reg *obs.Registry) (phases, instructions int64) {
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "progress.") {
			phases += v
		}
	}
	instructions = reg.Counter("sim620.instructions").Value() +
		reg.Counter("sim21164.instructions").Value()
	return phases, instructions
}

// TestStoreRestartHit is the persistence acceptance test: a daemon restart
// (new Manager, new Store over the same directory) serves a repeated job
// spec entirely from the store — zero simulated cells — with byte-identical
// results.
func TestStoreRestartHit(t *testing.T) {
	dir := t.TempDir()
	spec := storeSpec()

	// First life: compute everything, write through to disk. Its engine
	// counters show what computing the spec costs.
	reg1 := obs.NewRegistry()
	store1, err := NewStore(StoreConfig{Dir: dir, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := serve.NewManager(serve.Config{Workers: 2, Store: store1, Metrics: reg1})
	srv1 := httptest.NewServer(serve.NewHandler(mgr1))
	first := runJob(t, srv1.URL, spec)
	shutdownNow(t, mgr1)
	srv1.Close()
	if phases, insts := engineWork(reg1); phases == 0 || insts == 0 {
		t.Fatalf("first life computed nothing: %d phases, %d instructions", phases, insts)
	}

	// Second life: fresh process state, same store directory. The engine
	// counters in the registry the second Manager writes to prove nothing
	// was traced, annotated or simulated.
	reg := obs.NewRegistry()
	store2, err := NewStore(StoreConfig{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := serve.NewManager(serve.Config{Workers: 2, Store: store2, Metrics: reg})
	srv2 := httptest.NewServer(serve.NewHandler(mgr2))
	defer srv2.Close()
	defer shutdownNow(t, mgr2)
	second := runJob(t, srv2.URL, spec)

	if !bytes.Equal(first, second) {
		t.Errorf("restarted store changed the stream\n first: %s\nsecond: %s", first, second)
	}
	if phases, insts := engineWork(reg); phases != 0 || insts != 0 {
		t.Errorf("restart computed %d phases and simulated %d instructions, want 0 (all from store)", phases, insts)
	}
	cells := int64(bytes.Count(first, []byte("\n")) - 1) // minus the done event
	if got := reg.Counter("dist.store.hit").Value(); got != cells {
		t.Errorf("dist.store.hit = %d, want %d", got, cells)
	}
	if got := reg.Counter("dist.store.disk_hit").Value(); got != cells {
		t.Errorf("dist.store.disk_hit = %d, want %d", got, cells)
	}
	if got := reg.Counter("dist.store.miss").Value(); got != 0 {
		t.Errorf("dist.store.miss = %d, want 0", got)
	}
}
