package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"
)

// The datasets the paper downloads come as whitespace-separated edge
// lists ("u v" per line, # comments). We support that format plus a
// compact binary CSR format for fast reloading of generated datasets.
//
// Both loaders are parallel by default: the edge list is split into
// line-aligned chunks parsed on ingestWorkers() goroutines, and the
// binary format feeds its decoded CSR straight to fromCSR. See
// parallel.go for the worker-count knob and serial fallback rules.

// ReadEdgeList parses a text edge list. Lines starting with '#' or '%'
// are comments; blank lines are skipped. The vertex count is
// max(endpoint)+1 — the convention SNAP and Konect files follow.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return ReadEdgeListBytes(data)
}

// ReadEdgeListBytes parses a text edge list already held in memory,
// skipping the io.Reader copy — the daemon's upload path and the CLI's
// file loads land here.
func ReadEdgeListBytes(data []byte) (*Graph, error) {
	workers, forced := ingestWorkers()
	if workers <= 1 || (!forced && len(data) < serialByteCutoff) {
		return readEdgeListSerial(data)
	}
	return readEdgeListParallel(data, workers)
}

// nextLine splits data at the first '\n', stripping a trailing '\r'
// from the returned line (CRLF input), mirroring bufio.ScanLines.
func nextLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	} else {
		line, rest = data, nil
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, rest
}

// parseEdgeLine parses one edge-list line. skip reports a comment or
// blank line; errors are returned bare for the caller to wrap with the
// global line number.
func parseEdgeLine(line []byte) (u, v int64, skip bool, err error) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return 0, 0, true, nil
	}
	u, rest, err := parseUint(line[i:])
	if err != nil {
		return 0, 0, false, err
	}
	v, _, err = parseUint(rest)
	if err != nil {
		return 0, 0, false, err
	}
	// NodeID is uint32; an endpoint past math.MaxUint32 would wrap in
	// the NodeID(u) conversion and silently corrupt the edge, so refuse
	// the file outright.
	if u > math.MaxUint32 || v > math.MaxUint32 {
		return 0, 0, false, fmt.Errorf("endpoint %d exceeds the 32-bit NodeID range", max(u, v))
	}
	return u, v, false, nil
}

// parseUint reads one decimal field from b, returning the value and
// the remainder after the field. The digits are accumulated in place —
// no string conversion, no allocation — because this is the hot path
// of every text-format load.
func parseUint(b []byte) (int64, []byte, error) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := int64(b[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, nil, errors.New("integer field overflows int64")
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, nil, errors.New("expected integer field")
	}
	return v, b[i:], nil
}

// readEdgeListSerial is the single-goroutine oracle the parallel
// parser is tested against.
func readEdgeListSerial(data []byte) (*Graph, error) {
	edges := make([]Edge, 0, len(data)/16+1)
	maxID := int64(-1)
	lineNo := 0
	for len(data) > 0 {
		var line []byte
		line, data = nextLine(data)
		lineNo++
		u, v, skip, err := parseEdgeLine(line)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if skip {
			continue
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{NodeID(u), NodeID(v)})
	}
	return FromEdges(int(maxID+1), edges), nil
}

// readEdgeListParallel splits data into line-aligned chunks and parses
// them concurrently. The per-chunk edge slices are handed to the CSR
// builder as shards in chunk order, which preserves the exact edge
// sequence of a serial parse; per-chunk line counts reconstruct global
// line numbers for error messages.
func readEdgeListParallel(data []byte, workers int) (*Graph, error) {
	shards, maxID, _, errLine, err := parseBlock(data, workers)
	if err != nil {
		return nil, fmt.Errorf("graph: line %d: %w", errLine, err)
	}
	return build(int(maxID+1), shards, false), nil
}

// parseBlock parses one block of edge-list text into per-worker edge
// shards, splitting it into line-aligned chunks parsed concurrently.
// Shard concatenation order equals the serial edge sequence. It
// returns the shards, the largest endpoint seen (-1 if none), the
// number of lines consumed, and on failure the bare parse error with
// its block-local 1-based line number. The streaming loader calls this
// once per buffered block; the buffered loader once for the whole file.
func parseBlock(data []byte, workers int) (shards [][]Edge, maxID int64, lines, errLine int, err error) {
	starts := chunkStarts(data, workers)
	type chunkResult struct {
		edges   []Edge
		maxID   int64
		lines   int // lines consumed (up to and including an erroring one)
		err     error
		errLine int // chunk-local line number of err
	}
	chunks := make([]chunkResult, len(starts))
	runParallel(len(starts), func(w int) {
		c := &chunks[w]
		c.maxID = -1
		end := len(data)
		if w+1 < len(starts) {
			end = starts[w+1]
		}
		part := data[starts[w]:end]
		c.edges = make([]Edge, 0, len(part)/16+1)
		for len(part) > 0 {
			var line []byte
			line, part = nextLine(part)
			c.lines++
			u, v, skip, err := parseEdgeLine(line)
			if err != nil {
				c.err, c.errLine = err, c.lines
				return
			}
			if skip {
				continue
			}
			if u > c.maxID {
				c.maxID = u
			}
			if v > c.maxID {
				c.maxID = v
			}
			c.edges = append(c.edges, Edge{NodeID(u), NodeID(v)})
		}
	})
	// The earliest erroring chunk holds the first bad line, and every
	// chunk before it parsed to completion, so its line count prefix is
	// exact — the reported line number matches the serial parse.
	maxID = -1
	shards = make([][]Edge, 0, len(chunks))
	for i := range chunks {
		c := &chunks[i]
		if c.err != nil {
			return nil, 0, 0, lines + c.errLine, c.err
		}
		lines += c.lines
		if c.maxID > maxID {
			maxID = c.maxID
		}
		shards = append(shards, c.edges)
	}
	return shards, maxID, lines, 0, nil
}

// chunkStarts returns strictly increasing chunk start offsets, each
// aligned to the byte after a '\n', so no line straddles two chunks.
func chunkStarts(data []byte, workers int) []int {
	starts := make([]int, 1, workers)
	for w := 1; w < workers; w++ {
		p := int(int64(len(data)) * int64(w) / int64(workers))
		if p <= starts[len(starts)-1] {
			continue
		}
		j := bytes.IndexByte(data[p:], '\n')
		if j < 0 {
			break
		}
		p += j + 1
		if p > starts[len(starts)-1] && p < len(data) {
			starts = append(starts, p)
		}
	}
	return starts
}

// WriteEdgeList writes g as a text edge list with a descriptive header
// comment, in CSR order.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# directed graph: %d nodes %d edges\n", g.n, g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v NodeID) bool {
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// The binary format's 8-byte magic is a 7-byte prefix plus a format-
// version byte. Version '1' (v0) is the original layout: magic,
// header, arrays, nothing after. Version '2' (v1) appends a CRC32-IEEE
// footer over everything before it, so torn or bit-flipped files are
// detected on load. WriteBinary emits v1; readers accept both.
var (
	binaryMagic   = [8]byte{'G', 'O', 'R', 'D', 'C', 'S', 'R', '1'} // v0: no footer
	binaryMagicV1 = [8]byte{'G', 'O', 'R', 'D', 'C', 'S', 'R', '2'} // v1: CRC32 footer
)

// Sentinel errors for binary-graph decoding. Callers that manage
// stored blobs (internal/store) use these to tell corruption — a
// truncated payload or a checksum mismatch, where the blob must be
// discarded — from a format mismatch, where the bytes were never a
// gorder binary graph at all.
var (
	// ErrBadMagic reports bytes that are not a gorder binary graph
	// (wrong magic or an unknown format version).
	ErrBadMagic = errors.New("not a gorder binary graph file")
	// ErrTruncated reports a structurally valid prefix that ends before
	// the header, arrays, or checksum footer are complete.
	ErrTruncated = errors.New("truncated binary graph file")
	// ErrChecksum reports a v1 file whose CRC32 footer does not match
	// its contents.
	ErrChecksum = errors.New("binary graph checksum mismatch")
)

// WriteBinary writes g in the compact binary CSR format (v1): magic
// with version byte, n, m, the out-offset and out-adjacency arrays
// little-endian, then a CRC32-IEEE footer over all preceding bytes.
// The in-direction is rebuilt on load.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sum := crc32.NewIEEE()
	cw := io.MultiWriter(bw, sum)
	if _, err := cw.Write(binaryMagicV1[:]); err != nil {
		return err
	}
	hdr := [2]int64{int64(g.n), g.NumEdges()}
	if err := binary.Write(cw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, g.outIdx); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, g.outAdj); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary loads a graph written by WriteBinary (either format
// version). The decoded out-CSR arrays become the graph's storage
// directly and the in-CSR is derived by a counting pass — no
// intermediate edge list, so peak load memory is the graph itself plus
// the raw payload.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading payload: %w", err)
	}
	return ReadBinaryBytes(data)
}

// ReadBinaryBytes decodes a binary CSR graph already held in memory
// (an upload body, an mmap) without ReadBinary's payload copy. It
// accepts both format versions and verifies the v1 checksum footer;
// failures wrap ErrBadMagic, ErrTruncated, or ErrChecksum.
func ReadBinaryBytes(data []byte) (*Graph, error) {
	if len(data) < 8 || [7]byte(data[:7]) != [7]byte(binaryMagic[:7]) {
		return nil, fmt.Errorf("graph: %w", ErrBadMagic)
	}
	switch data[7] {
	case binaryMagic[7]: // v0: no footer
		return readBinaryPayload(data[8:])
	case binaryMagicV1[7]: // v1: verify and strip the CRC32 footer
		if len(data) < 12 {
			return nil, fmt.Errorf("graph: reading checksum footer: %w", ErrTruncated)
		}
		body, foot := data[:len(data)-4], data[len(data)-4:]
		want := binary.LittleEndian.Uint32(foot)
		if got := crc32.ChecksumIEEE(body); got != want {
			return nil, fmt.Errorf("graph: %w (file says %08x, contents sum to %08x)",
				ErrChecksum, want, got)
		}
		return readBinaryPayload(body[8:])
	default:
		return nil, fmt.Errorf("graph: %w (unknown format version %q)", ErrBadMagic, data[7])
	}
}

func readBinaryPayload(b []byte) (*Graph, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("graph: reading header: %w", ErrTruncated)
	}
	n := int64(binary.LittleEndian.Uint64(b))
	m := int64(binary.LittleEndian.Uint64(b[8:]))
	if n < 0 || m < 0 || n > 1<<32 {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	b = b[16:]
	// Size checks precede every allocation so a corrupt header cannot
	// provoke a huge make.
	if int64(len(b)) < (n+1)*8 {
		return nil, fmt.Errorf("graph: reading offsets: %w", ErrTruncated)
	}
	outIdx := make([]int64, n+1)
	for i := range outIdx {
		outIdx[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	b = b[(n+1)*8:]
	if outIdx[0] != 0 || outIdx[n] != m {
		return nil, errors.New("graph: corrupt offset array")
	}
	for i := int64(0); i < n; i++ {
		if outIdx[i] > outIdx[i+1] {
			return nil, errors.New("graph: non-monotone offset array")
		}
	}
	if m > int64(len(b))/4 { // m*4 would overflow for m near 2^62
		return nil, fmt.Errorf("graph: reading adjacency: %w", ErrTruncated)
	}
	outAdj := make([]NodeID, m)
	var badNeighbor atomic.Int64
	badNeighbor.Store(-1)
	workers := csrWorkers(m)
	runParallel(workers, func(w int) {
		lo, hi := span(int(m), workers, w)
		for i := lo; i < hi; i++ {
			v := binary.LittleEndian.Uint32(b[i*4:])
			if int64(v) >= n {
				badNeighbor.Store(int64(v))
			}
			outAdj[i] = NodeID(v)
		}
	})
	if v := badNeighbor.Load(); v >= 0 {
		return nil, fmt.Errorf("graph: neighbour %d out of range", v)
	}
	return fromCSR(int(n), outIdx, outAdj), nil
}
