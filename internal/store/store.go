// Package store is gorderd's persistence layer: a disk-backed,
// content-addressed store for graph CSR blobs and ordering-permutation
// artifacts, plus an in-memory residency manager with a byte budget
// and LRU eviction.
//
// The point of the store is the paper's amortization argument: an
// ordering's one-time cost only pays off if it outlives the process
// that computed it. Graph blobs live under <dir>/graphs/<digest> in
// the binary CSR format (v1, with a CRC32 footer), ordering artifacts
// under <dir>/orders/<digest>-<method>-<optkey> as permutation text,
// and a crash-safe manifest.json (written temp-file + fsync + rename)
// records names, sizes, checksums, and last-access times — so a
// restarted daemon serves its full catalog and answers repeat ordering
// jobs without recomputing.
//
// Residency: loaded graphs are cached in memory up to a configurable
// byte budget (graph.MemoryBytes accounting). Least-recently-used
// graphs are evicted first; an evicted graph stays on disk and is
// transparently reloaded on next use via the fast ReadBinaryBytes
// path. A graph bigger than the whole budget is served without being
// cached, so resident bytes never exceed the budget.
//
// All file paths under the store directory are built in this package
// only; CI enforces that no other package reaches into the data dir.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// ErrUnknownGraph reports a digest the store has no record of.
var ErrUnknownGraph = errors.New("store: unknown graph")

// ErrCorrupt reports a stored blob that failed its integrity checks
// (truncated, checksum mismatch, or undecodable). The store drops the
// blob and its manifest record before returning this, so the caller
// should drop its own reference and let the content be re-uploaded.
var ErrCorrupt = errors.New("store: stored blob is corrupt")

// Config configures a Store.
type Config struct {
	// Dir is the store directory; created (with its graphs/ and
	// orders/ subdirectories) if missing.
	Dir string
	// MemBudget caps the bytes of graphs held resident in memory
	// (graph.MemoryBytes accounting). <= 0 means unlimited.
	MemBudget int64
}

// GraphMeta is the catalog view of one stored graph, reconstructed
// from the manifest without touching the blob.
type GraphMeta struct {
	Digest    string
	Name      string // primary display name
	Nodes     int
	Edges     int64
	SrcBytes  int64 // size of the original upload
	FileBytes int64 // size of the CSR blob on disk
	Added     time.Time
	Resident  bool // held in memory at the time of the lookup
	// Lineage, Version and Latest are set when Stat or Load resolved
	// the reference through a lineage (a bare name, name@latest, or
	// name@vN): which lineage, which version this entry is, and the
	// lineage's tip version.
	Lineage string
	Version int
	Latest  int
}

// residentGraph is one in-memory graph plus its LRU bookkeeping.
type residentGraph struct {
	g     *graph.Graph
	bytes int64
	seq   int64 // last-touch tick; smallest = least recently used
}

// Store is safe for concurrent use. Disk reads of graph blobs happen
// outside the lock, so a cold load does not stall resident lookups.
type Store struct {
	dir    string
	budget int64

	mu            sync.Mutex
	man           *manifest
	resident      map[string]*residentGraph
	residentBytes int64
	lruSeq        int64

	hits         atomic.Int64 // ordering-artifact cache hits
	misses       atomic.Int64 // ordering-artifact cache misses
	evictions    atomic.Int64 // graphs evicted from residency
	reloads      atomic.Int64 // graphs reloaded from disk after eviction/restart
	resultHits   atomic.Int64 // kernel-result artifact hits
	resultMisses atomic.Int64 // kernel-result artifact misses
}

// Open creates or reopens the store at cfg.Dir. Manifest entries
// whose blob file has vanished are dropped, so the catalog the daemon
// advertises is always servable.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, graphsDirName),
		filepath.Join(cfg.Dir, ordersDirName), filepath.Join(cfg.Dir, resultsDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	man, err := loadManifest(filepath.Join(cfg.Dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      cfg.Dir,
		budget:   cfg.MemBudget,
		man:      man,
		resident: make(map[string]*residentGraph),
	}
	// Reconcile the manifest against the blob files actually present.
	dropped := false
	for digest := range man.Graphs {
		if _, err := os.Stat(s.graphPath(digest)); err != nil {
			delete(man.Graphs, digest)
			dropped = true
		}
	}
	// Lineages heal before the name sweep: a vanished tip repoints its
	// name to the previous surviving version rather than losing it.
	if s.healAllLineagesLocked() {
		dropped = true
	}
	for name, digest := range man.Names {
		if _, ok := man.Graphs[digest]; !ok {
			delete(man.Names, name)
			dropped = true
		}
	}
	for file, rec := range man.Orders {
		_, statErr := os.Stat(filepath.Join(s.dir, ordersDirName, file))
		_, graphOK := man.Graphs[rec.Graph]
		if statErr != nil || !graphOK {
			delete(man.Orders, file)
			dropped = true
		}
	}
	for file, rec := range man.Results {
		_, statErr := os.Stat(filepath.Join(s.dir, resultsDirName, file))
		_, graphOK := man.Graphs[rec.Graph]
		if statErr != nil || !graphOK {
			delete(man.Results, file)
			dropped = true
		}
	}
	if dropped {
		if err := s.saveManifestLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes the manifest so in-memory last-access updates survive.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveManifestLocked()
}

func (s *Store) graphPath(digest string) string {
	return filepath.Join(s.dir, graphsDirName, digest)
}

func (s *Store) saveManifestLocked() error {
	return s.man.save(filepath.Join(s.dir, manifestName))
}

// ---- graph blobs and residency ------------------------------------------

// Catalog returns every stored graph's metadata, sorted by name then
// digest — the listing GET /graphs serves.
func (s *Store) Catalog() []GraphMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphMeta, 0, len(s.man.Graphs))
	for digest := range s.man.Graphs {
		out = append(out, s.metaLocked(digest))
	}
	slices.SortFunc(out, func(a, b GraphMeta) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.Digest, b.Digest)
	})
	return out
}

// AddGraph registers an upload of the content hashed to digest under
// name: the name's lineage gains it as the next version (a no-op when
// it already is the tip), exactly like AppendVersion. Content already
// stored is deduplicated — its blob is not rewritten and g is not read
// (it may be nil). Reports the catalog entry and whether the content
// was new.
func (s *Store) AddGraph(digest, name string, g *graph.Graph, srcBytes int64) (GraphMeta, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, stored := s.man.Graphs[digest]
	if !stored && g == nil {
		return GraphMeta{}, false, fmt.Errorf("%w: %s", ErrUnknownGraph, digest)
	}
	if _, err := s.appendVersionLocked(name, digest, g, srcBytes); err != nil {
		return GraphMeta{}, false, err
	}
	return s.metaLocked(digest), !stored, nil
}

// Stat resolves ref to its catalog entry without loading the graph.
// A reference is a digest, a version reference (name@vN, name@latest),
// or a name, tried in that order; see ParseRef.
func (s *Store) Stat(ref string) (GraphMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statLocked(ref)
}

// Load resolves ref like Stat and returns its graph with the catalog
// entry: from residency when warm, otherwise reloaded from its blob
// (and re-admitted under the budget). A blob that fails integrity
// checks is dropped from the store — its lineages heal to their
// previous versions — and reported as ErrCorrupt.
func (s *Store) Load(ref string) (*graph.Graph, GraphMeta, error) {
	s.mu.Lock()
	meta, ok := s.statLocked(ref)
	if !ok {
		s.mu.Unlock()
		return nil, GraphMeta{}, fmt.Errorf("%w: %s", ErrUnknownGraph, ref)
	}
	digest := meta.Digest
	if rg, ok := s.resident[digest]; ok {
		s.lruSeq++
		rg.seq = s.lruSeq
		g := rg.g
		s.mu.Unlock()
		return g, meta, nil
	}
	s.man.Graphs[digest].LastAccess = time.Now().UTC()
	s.mu.Unlock()

	data, err := os.ReadFile(s.graphPath(digest))
	if err != nil {
		s.dropGraph(digest)
		return nil, meta, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, digest, err)
	}
	g, err := graph.ReadBinaryBytes(data)
	if err != nil {
		if errors.Is(err, graph.ErrBadMagic) {
			// Format mismatch, not bit rot: the blob was never a gorder
			// binary graph. Leave it for inspection.
			return nil, meta, fmt.Errorf("store: graph %s blob has a foreign format: %w", digest, err)
		}
		// Truncation or checksum mismatch: the blob is damaged. Drop it
		// so the content can be re-uploaded under the same digest.
		s.dropGraph(digest)
		return nil, meta, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, digest, err)
	}
	s.reloads.Add(1)
	s.mu.Lock()
	s.admitLocked(digest, g)
	s.mu.Unlock()
	return g, meta, nil
}

// statLocked is Stat's resolution under s.mu.
func (s *Store) statLocked(ref string) (GraphMeta, bool) {
	if _, ok := s.man.Graphs[ref]; ok {
		return s.metaLocked(ref), true
	}
	name, version, versioned := ParseRef(ref)
	lin := s.man.Lineages[name]
	var digest string
	if versioned {
		if lin == nil || len(lin.Versions) == 0 || version > len(lin.Versions) {
			return GraphMeta{}, false
		}
		if version == 0 {
			version = len(lin.Versions)
		}
		digest = lin.Versions[version-1]
	} else {
		d, ok := s.man.Names[name]
		if !ok {
			return GraphMeta{}, false
		}
		digest = d
		if lin != nil {
			version = len(lin.Versions)
		}
	}
	if _, ok := s.man.Graphs[digest]; !ok {
		return GraphMeta{}, false
	}
	meta := s.metaLocked(digest)
	if version > 0 {
		meta.Lineage, meta.Version, meta.Latest = name, version, len(lin.Versions)
	}
	return meta, true
}

// metaLocked builds the catalog entry of a stored digest.
func (s *Store) metaLocked(digest string) GraphMeta {
	rec := s.man.Graphs[digest]
	_, resident := s.resident[digest]
	return GraphMeta{
		Digest: digest, Name: rec.Name, Nodes: rec.Nodes, Edges: rec.Edges,
		SrcBytes: rec.SrcBytes, FileBytes: rec.FileBytes, Added: rec.Added,
		Resident: resident,
	}
}

// admitLocked makes g resident and evicts least-recently-used others
// until the budget holds. A graph larger than the entire budget is
// never admitted — callers still get it, it just is not cached — so
// resident bytes stay <= budget.
func (s *Store) admitLocked(digest string, g *graph.Graph) {
	if rg, ok := s.resident[digest]; ok {
		s.lruSeq++
		rg.seq = s.lruSeq
		return
	}
	size := g.MemoryBytes()
	if s.budget > 0 && size > s.budget {
		return
	}
	s.lruSeq++
	s.resident[digest] = &residentGraph{g: g, bytes: size, seq: s.lruSeq}
	s.residentBytes += size
	if s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget {
		victim := ""
		var oldest int64
		for d, rg := range s.resident {
			if d == digest {
				continue
			}
			if victim == "" || rg.seq < oldest {
				victim, oldest = d, rg.seq
			}
		}
		if victim == "" {
			return
		}
		s.residentBytes -= s.resident[victim].bytes
		delete(s.resident, victim)
		s.evictions.Add(1)
	}
}

// dropGraph removes a damaged graph: blob, residency, aliases, its
// ordering artifacts, and the manifest records. Lineages containing
// the digest heal first, so a corrupt tip repoints its name to the
// previous version instead of erasing the whole history.
func (s *Store) dropGraph(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rg, ok := s.resident[digest]; ok {
		s.residentBytes -= rg.bytes
		delete(s.resident, digest)
	}
	delete(s.man.Graphs, digest)
	s.healLineagesLocked(digest)
	for name, d := range s.man.Names {
		if d == digest {
			delete(s.man.Names, name)
		}
	}
	for file, rec := range s.man.Orders {
		if rec.Graph == digest {
			os.Remove(filepath.Join(s.dir, ordersDirName, file))
			delete(s.man.Orders, file)
		}
	}
	for file, rec := range s.man.Results {
		if rec.Graph == digest {
			os.Remove(filepath.Join(s.dir, resultsDirName, file))
			delete(s.man.Results, file)
		}
	}
	os.Remove(s.graphPath(digest))
	s.saveManifestLocked()
}

// ---- ordering artifacts -------------------------------------------------

// orderFileName is the artifact naming scheme:
// <graph-digest>-<method>-<options-hash>.
func orderFileName(graphDigest, method, optKey string) string {
	return graphDigest + "-" + method + "-" + optKey
}

// PutOrder persists a computed permutation for (graph, method,
// canonical-options) so future identical jobs are served from disk.
func (s *Store) PutOrder(graphDigest, method, optKey string, perm order.Permutation) error {
	file := orderFileName(graphDigest, method, optKey)
	var n int64
	sum := crc32.NewIEEE()
	err := WriteFileAtomic(filepath.Join(s.dir, ordersDirName, file), 0o644, func(w io.Writer) error {
		cw := &countWriter{w: io.MultiWriter(w, sum)}
		if err := order.WritePermutation(cw, perm); err != nil {
			return err
		}
		n = cw.n
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: persisting ordering %s: %w", file, err)
	}
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Orders[file] = &orderRec{
		Graph: graphDigest, Method: method, OptKey: optKey,
		Bytes: n, CRC32: fmt.Sprintf("%08x", sum.Sum32()),
		Added: now, LastAccess: now,
	}
	return s.saveManifestLocked()
}

// GetOrder looks up a cached permutation. wantLen guards against an
// artifact computed for different content under a colliding key; any
// integrity failure silently invalidates the artifact (it will simply
// be recomputed). The hit/miss counters feed gorderd's
// store_hits_total / store_misses_total metrics.
func (s *Store) GetOrder(graphDigest, method, optKey string, wantLen int) (order.Permutation, bool) {
	file := orderFileName(graphDigest, method, optKey)
	s.mu.Lock()
	rec, ok := s.man.Orders[file]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	rec.LastAccess = time.Now().UTC()
	wantCRC := rec.CRC32
	s.mu.Unlock()

	path := filepath.Join(s.dir, ordersDirName, file)
	data, err := os.ReadFile(path)
	if err == nil && fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)) != wantCRC {
		err = errors.New("artifact checksum mismatch")
	}
	var perm order.Permutation
	if err == nil {
		perm, err = order.ReadPermutation(bytes.NewReader(data))
	}
	if err == nil && len(perm) != wantLen {
		err = fmt.Errorf("artifact covers %d vertices, want %d", len(perm), wantLen)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.man.Orders, file)
		os.Remove(path)
		s.saveManifestLocked()
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return perm, true
}

// LatestOrder reports the most recently used ordering artifact stored
// for graphDigest — the "best available ordering" the query tier falls
// back to when a request does not name one. A non-empty method
// restricts the scan to that ordering method (for requests that name
// one explicitly). Ties break on Added time then file name, so the
// choice is deterministic.
func (s *Store) LatestOrder(graphDigest, method string) (string, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bestFile string
	var best *orderRec
	for file, rec := range s.man.Orders {
		if rec.Graph != graphDigest || (method != "" && rec.Method != method) {
			continue
		}
		if best == nil ||
			rec.LastAccess.After(best.LastAccess) ||
			(rec.LastAccess.Equal(best.LastAccess) &&
				(rec.Added.After(best.Added) ||
					(rec.Added.Equal(best.Added) && file > bestFile))) {
			best, bestFile = rec, file
		}
	}
	if best == nil {
		return "", "", false
	}
	return best.Method, best.OptKey, true
}

// ---- kernel-result artifacts --------------------------------------------

// resultFileName is the materialized-result naming scheme:
// <graph-digest>-<kernel>-<params-hash>.
func resultFileName(graphDigest, kernel, paramKey string) string {
	return graphDigest + "-" + kernel + "-" + paramKey
}

// PutResult persists an encoded whole-graph kernel result for (graph,
// kernel, canonical-params) so repeat queries survive a restart. data
// is opaque to the store (the query tier owns the codec); integrity is
// the store's CRC.
func (s *Store) PutResult(graphDigest, kernel, paramKey string, data []byte) error {
	s.mu.Lock()
	_, known := s.man.Graphs[graphDigest]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownGraph, graphDigest)
	}
	file := resultFileName(graphDigest, kernel, paramKey)
	err := WriteFileAtomic(filepath.Join(s.dir, resultsDirName, file), 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: persisting result %s: %w", file, err)
	}
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Results[file] = &resultRec{
		Graph: graphDigest, Kernel: kernel, ParamKey: paramKey,
		Bytes: int64(len(data)), CRC32: fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)),
		Added: now, LastAccess: now,
	}
	return s.saveManifestLocked()
}

// GetResult loads a materialized kernel result. Any integrity failure
// silently invalidates the artifact — it is dropped so the query tier
// simply recomputes and re-materializes, mirroring the corrupt-graph
// behaviour.
func (s *Store) GetResult(graphDigest, kernel, paramKey string) ([]byte, bool) {
	file := resultFileName(graphDigest, kernel, paramKey)
	s.mu.Lock()
	rec, ok := s.man.Results[file]
	if !ok {
		s.mu.Unlock()
		s.resultMisses.Add(1)
		return nil, false
	}
	rec.LastAccess = time.Now().UTC()
	wantCRC := rec.CRC32
	s.mu.Unlock()

	path := filepath.Join(s.dir, resultsDirName, file)
	data, err := os.ReadFile(path)
	if err == nil && fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)) != wantCRC {
		err = errors.New("artifact checksum mismatch")
	}
	if err != nil {
		s.mu.Lock()
		delete(s.man.Results, file)
		os.Remove(path)
		s.saveManifestLocked()
		s.mu.Unlock()
		s.resultMisses.Add(1)
		return nil, false
	}
	s.resultHits.Add(1)
	return data, true
}

// ---- metrics ------------------------------------------------------------

// Hits returns the ordering-artifact cache hit count.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns the ordering-artifact cache miss count.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Evictions returns how many graphs have been evicted from residency.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// Reloads returns how many graphs were reloaded from disk.
func (s *Store) Reloads() int64 { return s.reloads.Load() }

// ResidentBytes returns the bytes of graphs currently held in memory.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentBytes
}

// GraphCount returns the number of stored graphs.
func (s *Store) GraphCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Graphs))
}

// OrderCount returns the number of stored ordering artifacts.
func (s *Store) OrderCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Orders))
}

// ResultCount returns the number of materialized kernel-result artifacts.
func (s *Store) ResultCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Results))
}

// ResultHits returns the materialized-result artifact hit count.
func (s *Store) ResultHits() int64 { return s.resultHits.Load() }

// ResultMisses returns the materialized-result artifact miss count.
func (s *Store) ResultMisses() int64 { return s.resultMisses.Load() }

// countWriter counts bytes on their way to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
