package server

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"aware/internal/api"
	"aware/internal/colstore"
	"aware/internal/dataset"
)

// Registry errors.
var (
	// ErrDatasetNotFound is returned when a named dataset is not registered.
	ErrDatasetNotFound = errors.New("server: dataset not found")
	// ErrDatasetExists is returned when registering over an existing name.
	ErrDatasetExists = errors.New("server: dataset already registered")
)

// The dataset listing documents are defined by the wire contract in
// internal/api; the server re-exports them so existing consumers keep
// compiling.
type (
	// ColumnInfo is one column of a dataset's schema as reported by /datasets.
	ColumnInfo = api.ColumnInfo
	// SnapshotInfo describes the snapshot file backing a dataset, when there
	// is one.
	SnapshotInfo = api.SnapshotInfo
	// DatasetInfo summarizes one registered dataset for listings.
	DatasetInfo = api.DatasetInfo
)

// DatasetRegistry holds the named tables that sessions explore. Tables are
// immutable once registered — sessions across many goroutines read them
// concurrently without locking, so the registry never hands out a table it
// would later modify; replacing a dataset requires a new name.
//
// Each dataset carries one shared filter-bitmap cache (dataset.SelectionCache,
// safe for concurrent use): every session opened over the dataset resolves
// its predicates through it, so a filter compiled by one session is a cache
// hit for every other — the cross-session reuse is sound precisely because
// the table never changes. The cache holds at most 32 MiB of bitmap and key
// bytes and evicts arbitrary entries past that, so a dataset's cache costs
// the same memory at 300k rows as at 3M (≈ 894 bitmaps against 89); the
// budget took the open-loop 300k-row benchmark's peak RSS from 334–339 MB
// under the former 4,096-entry cap to 86 MB with CPU flat (see
// dataset.SelectionCache).
// Each dataset also carries one shared Selection word arena
// (dataset.WordArena): filter compiles across every session over the dataset
// recycle their bitmap words through it, so steady-state serving allocates
// zero words per filter. Cached bitmaps are reference-counted: the cache
// holds one reference, each session step one more, and a bitmap returns to
// the arena only when its eviction and every step's Release have dropped
// them all, so sharing stays safe.
type DatasetRegistry struct {
	mu     sync.RWMutex
	tables map[string]*dataset.Table
	caches map[string]*dataset.SelectionCache
	arenas map[string]*dataset.WordArena
	pool   *dataset.Pool
}

// NewDatasetRegistry returns an empty registry.
func NewDatasetRegistry() *DatasetRegistry {
	return &DatasetRegistry{
		tables: make(map[string]*dataset.Table),
		caches: make(map[string]*dataset.SelectionCache),
		arenas: make(map[string]*dataset.WordArena),
	}
}

// SetPool makes every subsequently registered table execute its
// morsel-parallel kernels on the given pool (nil leaves tables on the
// process-wide default). The server configures this once at construction so
// all datasets share one bounded worker set.
func (r *DatasetRegistry) SetPool(p *dataset.Pool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pool = p
}

// Register adds a table under a unique name and builds its shared filter
// cache.
func (r *DatasetRegistry) Register(name string, t *dataset.Table) error {
	if name == "" {
		return fmt.Errorf("server: dataset name must not be empty")
	}
	if t == nil {
		return fmt.Errorf("server: nil table for dataset %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tables[name]; dup {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	if r.pool != nil {
		t.SetPool(r.pool)
	}
	arena := dataset.NewWordArena(t.NumRows())
	t.SetArena(arena)
	r.tables[name] = t
	r.caches[name] = dataset.NewSelectionCache(t)
	r.arenas[name] = arena
	return nil
}

// Get returns the named table.
func (r *DatasetRegistry) Get(name string) (*dataset.Table, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	return t, nil
}

// Cache returns the named dataset's shared filter-bitmap cache.
func (r *DatasetRegistry) Cache(name string) (*dataset.SelectionCache, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.caches[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	return c, nil
}

// Dataset returns the named table together with its shared filter-bitmap
// cache — the plan.Catalog contract, so sessions resolve JoinDataset steps
// straight through the registry.
func (r *DatasetRegistry) Dataset(name string) (*dataset.Table, *dataset.SelectionCache, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	return t, r.caches[name], nil
}

// Arena returns the named dataset's shared Selection word arena.
func (r *DatasetRegistry) Arena(name string) (*dataset.WordArena, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.arenas[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, name)
	}
	return a, nil
}

// RegisterSnapshotDir discovers every *.aware snapshot in dir, mmaps it and
// registers it under its base name (minus the extension): the awared -data
// startup path. A snapshot that fails to load — truncated, corrupt, wrong
// version — is skipped with a warning rather than refusing to start the
// server, matching how journal recovery treats damaged session journals; a
// name collision (with a built-in dataset or a duplicate file) is skipped the
// same way. Environment errors (unreadable directory) are returned. Returns
// the number of datasets registered.
func (r *DatasetRegistry) RegisterSnapshotDir(dir string, log *slog.Logger) (int, error) {
	if log == nil {
		log = slog.Default()
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return 0, fmt.Errorf("server: snapshot dir: %w", err)
	}
	if !fi.IsDir() {
		return 0, fmt.Errorf("server: snapshot dir %s is not a directory", dir)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+colstore.SnapshotExt))
	if err != nil {
		return 0, fmt.Errorf("server: scanning snapshot dir %s: %w", dir, err)
	}
	sort.Strings(paths)
	registered := 0
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), colstore.SnapshotExt)
		table, err := dataset.OpenSnapshot(path)
		if err != nil {
			log.Warn("skipping unloadable snapshot", "path", path, "err", err)
			continue
		}
		if err := r.Register(name, table); err != nil {
			table.Close()
			log.Warn("skipping snapshot with conflicting name", "path", path, "name", name, "err", err)
			continue
		}
		store := table.Store()
		log.Info("snapshot dataset ready", "name", name, "rows", table.NumRows(),
			"path", path, "size_bytes", store.SizeBytes(), "resident", store.Resident())
		registered++
	}
	return registered, nil
}

// List returns a summary of every registered dataset, sorted by name.
func (r *DatasetRegistry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.tables))
	for name, t := range r.tables {
		out = append(out, describeDataset(name, t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// describeDataset builds one dataset's listing entry from its table and the
// store behind it.
func describeDataset(name string, t *dataset.Table) DatasetInfo {
	info := DatasetInfo{Name: name, Rows: t.NumRows(), Columns: t.ColumnNames(), Storage: "heap"}
	store := t.Store()
	for _, cs := range store.Schema() {
		info.Schema = append(info.Schema, ColumnInfo{Name: cs.Name, Kind: cs.Kind.String()})
	}
	if store.Resident() {
		info.Storage = "mmap"
	}
	if p := store.Path(); p != "" {
		info.Snapshot = &SnapshotInfo{Path: p, SizeBytes: store.SizeBytes()}
	}
	return info
}
