// Package dist is lvpd's content-addressed result store: it turns repeat
// cells — from any job or any daemon restart — into cache hits instead of
// re-simulations.
//
// The paper's premise, that value locality makes repeated computation
// predictable, applies at the serving layer verbatim: experiment cells are
// deterministic functions of their spec, so a canonical serialization of
// the spec is a sound content address for the result. The store hashes
// that serialization (SHA-256) into a key for a bounded in-memory LRU
// backed by an optional disk directory, which is what lets results survive
// restarts.
package dist

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lvp/internal/obs"
	"lvp/internal/serve"
)

// keySpec is the canonical serialization of one cell at one scale. The
// field set and order are frozen by the V tag: any change to the cell
// schema that alters result bytes must bump V so stale disk entries can
// never alias a new-format cell.
type keySpec struct {
	V         int    `json:"v"`
	Kind      string `json:"kind"`
	Bench     string `json:"bench"`
	Machine   string `json:"machine"`
	Config    string `json:"config"`
	Target    string `json:"target"`
	Depths    []int  `json:"depths"`
	Predictor string `json:"predictor"`
	Scale     int    `json:"scale"`
}

// keyVersion is bumped whenever cell semantics change incompatibly.
const keyVersion = 1

// CellKey returns the content address of one cell spec at one scale: the
// SHA-256 of its canonical JSON serialization, hex-encoded. Scales <= 0
// normalize to 1, matching the engine's clamp, so the same work never gets
// two addresses.
func CellKey(cell serve.Cell, scale int) string {
	if scale <= 0 {
		scale = 1
	}
	b, err := json.Marshal(keySpec{
		V:         keyVersion,
		Kind:      cell.Kind,
		Bench:     cell.Bench,
		Machine:   cell.Machine,
		Config:    cell.Config,
		Target:    cell.Target,
		Depths:    cell.Depths,
		Predictor: cell.Predictor,
		Scale:     scale,
	})
	if err != nil {
		// A keySpec of plain strings and ints cannot fail to marshal.
		panic(fmt.Sprintf("dist: cell key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// StoreConfig tunes a Store.
type StoreConfig struct {
	// Entries bounds the in-memory LRU (<= 0 selects DefaultStoreEntries).
	Entries int
	// Dir, when non-empty, persists every entry under this directory
	// (created if missing) so results survive restarts; in-memory misses
	// fall through to disk before being reported as misses.
	Dir string
	// Metrics receives dist.store.{hit,miss,evict,...}; nil disables
	// collection.
	Metrics *obs.Registry
}

// DefaultStoreEntries is the LRU capacity when none is given.
const DefaultStoreEntries = 4096

// Store is the content-addressed result cache: an LRU of result payloads
// keyed by CellKey, with optional write-through disk persistence. It
// implements serve.ResultStore, so it slots into the Manager. Safe for
// concurrent use.
type Store struct {
	cap int
	dir string

	mu  sync.Mutex
	ent map[string]*list.Element // key → LRU element holding *storeEntry
	lru *list.List               // front = most recently used

	hits, misses, evicts  *obs.Counter
	diskHits, puts, diskE *obs.Counter
}

type storeEntry struct {
	key string
	res json.RawMessage
}

// NewStore opens (creating Dir if configured) a content-addressed store.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = DefaultStoreEntries
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: store dir: %w", err)
		}
	}
	return &Store{
		cap:      cfg.Entries,
		dir:      cfg.Dir,
		ent:      map[string]*list.Element{},
		lru:      list.New(),
		hits:     cfg.Metrics.Counter("dist.store.hit"),
		misses:   cfg.Metrics.Counter("dist.store.miss"),
		evicts:   cfg.Metrics.Counter("dist.store.evict"),
		diskHits: cfg.Metrics.Counter("dist.store.disk_hit"),
		puts:     cfg.Metrics.Counter("dist.store.put"),
		diskE:    cfg.Metrics.Counter("dist.store.disk_error"),
	}, nil
}

// Get implements serve.ResultStore: the LRU first, then disk (a disk hit is
// promoted into the LRU). The returned bytes are the exact bytes Put stored.
func (s *Store) Get(cell serve.Cell, scale int) (json.RawMessage, bool) {
	return s.GetKey(CellKey(cell, scale))
}

// Put implements serve.ResultStore: store (and persist, when a directory is
// configured) one cell's result bytes.
func (s *Store) Put(cell serve.Cell, scale int, res json.RawMessage) {
	s.PutKey(CellKey(cell, scale), res)
}

// GetKey is Get by precomputed content address.
func (s *Store) GetKey(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	if el, ok := s.ent[key]; ok {
		s.lru.MoveToFront(el)
		res := el.Value.(*storeEntry).res
		s.mu.Unlock()
		s.hits.Inc()
		return res, true
	}
	s.mu.Unlock()

	if s.dir != "" {
		if res, err := os.ReadFile(s.path(key)); err == nil && json.Valid(res) {
			s.insert(key, res)
			s.hits.Inc()
			s.diskHits.Inc()
			return res, true
		}
	}
	s.misses.Inc()
	return nil, false
}

// PutKey is Put by precomputed content address.
func (s *Store) PutKey(key string, res json.RawMessage) {
	s.insert(key, res)
	s.puts.Inc()
	if s.dir == "" {
		return
	}
	// Write-through: temp file + rename so a crashed write can never leave
	// a torn entry behind (Get additionally validates JSON on read).
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.diskE.Inc()
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		s.diskE.Inc()
		return
	}
	if _, err := tmp.Write(res); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.diskE.Inc()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.diskE.Inc()
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.diskE.Inc()
	}
}

// insert adds or refreshes one LRU entry, evicting from the cold end when
// over capacity (disk entries survive eviction; only memory is bounded).
func (s *Store) insert(key string, res json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.ent[key]; ok {
		el.Value.(*storeEntry).res = res
		s.lru.MoveToFront(el)
		return
	}
	s.ent[key] = s.lru.PushFront(&storeEntry{key: key, res: res})
	for s.lru.Len() > s.cap {
		cold := s.lru.Back()
		s.lru.Remove(cold)
		delete(s.ent, cold.Value.(*storeEntry).key)
		s.evicts.Inc()
	}
}

// Len reports the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// path shards disk entries by the key's first byte to keep directories
// small under millions of cached cells.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}
