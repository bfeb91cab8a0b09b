package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gorder/internal/cli"
	"gorder/internal/graph"
	"gorder/internal/store"
)

// GraphInfo is the public description of a registered graph.
type GraphInfo struct {
	ID    string    `json:"id"`    // content hash prefix — stable across restarts
	Name  string    `json:"name"`  // caller-chosen label (filename stem for preloads)
	Nodes int       `json:"nodes"` //
	Edges int64     `json:"edges"`
	Bytes int64     `json:"bytes"` // size of the source file/upload
	Added time.Time `json:"added"`
	// Resident reports whether the graph is currently held in memory;
	// OnDisk whether a persistent blob backs it, which every graph in
	// the store has.
	Resident bool `json:"resident"`
	OnDisk   bool `json:"on_disk"`
	// Lineage/Version/Latest are set when the lookup resolved through
	// a versioned lineage (a bare name, name@latest, or name@vN):
	// which lineage, which version this info describes, and the
	// lineage's current tip version.
	Lineage string `json:"lineage,omitempty"`
	Version int    `json:"version,omitempty"`
	Latest  int    `json:"latest,omitempty"`
}

// infoOf maps a store catalog entry onto the API's graph description.
func infoOf(m store.GraphMeta) GraphInfo {
	return GraphInfo{
		ID: m.Digest, Name: m.Name, Nodes: m.Nodes, Edges: m.Edges,
		Bytes: m.SrcBytes, Added: m.Added, Resident: m.Resident, OnDisk: true,
		Lineage: m.Lineage, Version: m.Version, Latest: m.Latest,
	}
}

// Registry is the daemon's graph-facing API over the store, which is
// the only catalog: graphs, names and lineages live in its manifest,
// the graphs themselves in its residency cache (LRU under a byte
// budget) with their blobs on disk, so they survive restarts. Graphs
// are deduplicated by content hash: uploading the same bytes twice
// (under any name) yields the same ID and stores one copy.
type Registry struct {
	store *store.Store
	bytes *Counter // cumulative accepted upload bytes (metric)

	ingests      *Counter // parses performed (dedup hits excluded)
	ingestMillis *Counter // cumulative parse+build wall time, ms
	ingestEdges  *Counter // cumulative edges ingested
}

// NewRegistry returns a registry over st wired to m's metrics.
func NewRegistry(m *Metrics, st *store.Store) *Registry {
	m.Func("graphs_loaded", st.GraphCount)
	return &Registry{
		store:        st,
		bytes:        m.Counter("graphs_bytes_accepted"),
		ingests:      m.Counter("ingest_total"),
		ingestMillis: m.Counter("ingest_ms_total"),
		ingestEdges:  m.Counter("ingest_edges_total"),
	}
}

// graphID derives the registry ID from the source bytes: the first 16
// hex digits of the SHA-256 — short enough for URLs, long enough that
// collisions are out of the question at any realistic fleet size.
func graphID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Add parses data (binary CSR or text edge list, sniffed) and
// registers it under name. If the identical bytes are already
// registered the existing entry is returned with created == false and
// becomes the name's tip; the bytes are not parsed again.
func (r *Registry) Add(name string, data []byte) (GraphInfo, bool, error) {
	id := graphID(data)
	if m, ok := r.store.Stat(id); ok && m.Digest == id {
		return r.AddParsed(name, id, nil, int64(len(data)), 0)
	}
	start := time.Now()
	g, err := cli.ReadGraphBytes(data)
	if err != nil {
		return GraphInfo{}, false, fmt.Errorf("parsing graph %q: %w", name, err)
	}
	return r.AddParsed(name, id, g, int64(len(data)), time.Since(start))
}

// AddParsed registers an already-parsed graph under name with the
// given content digest — the streaming upload path, where the body was
// hashed and parsed incrementally and never existed as one buffer.
// Identical content (by digest) deduplicates to the existing entry
// with created == false; g is not read then and may be nil. Either
// way the graph becomes the tip of name's lineage. A new graph is
// persisted before it is reported, so an upload either lands durably
// or fails visibly.
func (r *Registry) AddParsed(name, id string, g *graph.Graph, srcBytes int64, parse time.Duration) (GraphInfo, bool, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return GraphInfo{}, false, fmt.Errorf("graph name is required")
	}
	m, created, err := r.store.AddGraph(id, name, g, srcBytes)
	if err != nil {
		return GraphInfo{}, false, err
	}
	if created {
		r.ingests.Inc()
		r.ingestMillis.Add(parse.Milliseconds())
		r.ingestEdges.Add(g.NumEdges())
		r.bytes.Add(srcBytes)
	}
	return infoOf(m), created, nil
}

// graphFileExts are the dataset filename extensions LoadDir accepts.
var graphFileExts = map[string]bool{
	".bin": true, ".graph": true, ".txt": true, ".el": true, ".edges": true,
}

// LoadDir registers every graph file in dir (non-recursive), named by
// filename stem. Unparseable files abort the load — a corrupt dataset
// directory is a deployment error, not something to skip silently.
func (r *Registry) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, de := range entries {
		if de.IsDir() || !graphFileExts[filepath.Ext(de.Name())] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return loaded, err
		}
		name := strings.TrimSuffix(de.Name(), filepath.Ext(de.Name()))
		if _, _, err := r.Add(name, data); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}

// Stat resolves a graph's metadata by ID, version reference
// (name@vN, name@latest), or name — without loading an evicted graph
// back into memory. Use this for validation and listing; Get for
// actually running against the graph.
func (r *Registry) Stat(ref string) (GraphInfo, bool) {
	m, ok := r.store.Stat(ref)
	if !ok {
		return GraphInfo{}, false
	}
	return infoOf(m), true
}

// Get resolves a graph by ID, version reference, or name, reloading
// an evicted graph from disk. A graph whose blob turns out corrupt is
// dropped by the store (which heals any lineage it tipped) and
// reported as absent, so the content can be re-uploaded.
func (r *Registry) Get(ref string) (*graph.Graph, GraphInfo, bool) {
	g, m, err := r.store.Load(ref)
	if err != nil {
		return nil, GraphInfo{}, false
	}
	return g, infoOf(m), true
}

// Advance registers g as the next version of the named lineage — the
// mutation path behind POST /graphs/{name}/edges. The graph is
// serialized to derive its content digest (the same ID an upload of
// those bytes would get), appended to the store lineage, and the name
// repointed at the new tip.
func (r *Registry) Advance(name string, g *graph.Graph) (GraphInfo, error) {
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		return GraphInfo{}, fmt.Errorf("serializing mutated graph: %w", err)
	}
	data := buf.Bytes()
	id := graphID(data)
	ver, err := r.store.AppendVersion(name, id, g, int64(len(data)))
	if err != nil {
		return GraphInfo{}, err
	}
	r.bytes.Add(int64(len(data)))
	info, _ := r.Stat(id)
	info.Lineage, info.Version, info.Latest = name, ver, ver
	return info, nil
}

// List returns every registered graph, sorted by name then ID.
func (r *Registry) List() []GraphInfo {
	cat := r.store.Catalog()
	out := make([]GraphInfo, len(cat))
	for i, m := range cat {
		out[i] = infoOf(m)
	}
	return out
}
