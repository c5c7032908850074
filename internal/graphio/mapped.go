package graphio

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"ipregel/internal/graph"
)

// Mapped is a graph whose adjacency aliases an mmap'd IPG1/IPG2/IPG3
// file: the kernel pages neighbour lists in on demand and can evict
// them under pressure, so graphs larger than RAM stay loadable — the
// Pregelix trade-off (PAPERS.md) of keeping only the frontier and
// mailboxes resident while the adjacency lives behind a paging
// boundary. The file is validated eagerly on open, so the graph the
// engine sees is exactly as trustworthy as a heap-loaded one: one pass
// over the block table, then an IPG3 stream's decode sweep cut into
// equal-byte spans swept on up to GOMAXPROCS goroutines (serially at
// GOMAXPROCS=1 or on a small stream; graph.NewCompressedOut). After it
// the pages are evictable.
//
// Close unmaps the file; the Graph must not be used afterwards (its
// adjacency slices point into the dead mapping). Callers own the
// lifecycle: defer Close in CLIs, close at shutdown in the daemon.
type Mapped struct {
	g       *graph.Graph
	mapping []byte
	path    string
}

// Graph returns the mapped graph. Valid until Close.
func (m *Mapped) Graph() *graph.Graph { return m.g }

// Path returns the file the graph is mapped from.
func (m *Mapped) Path() string { return m.path }

// MappedBytes returns the size of the file mapping backing the graph.
func (m *Mapped) MappedBytes() uint64 { return uint64(len(m.mapping)) }

// Close unmaps the file. The Graph is invalid afterwards; an in-side read
// that would build its deferred in-adjacency panics with graph.ErrClosed
// instead of reading the unmapped file. Close is idempotent.
func (m *Mapped) Close() error {
	if m.mapping == nil {
		return nil
	}
	data := m.mapping
	m.mapping = nil
	m.g.MarkClosed()
	m.g = nil
	return munmapFile(data)
}

// OpenMapped maps an IPG1/IPG2/IPG3 file and parses it with the parser
// ReadBinary uses, so the graph's arrays alias the mapping. IPG3 aliases
// every section (the file was written with natural alignment for exactly
// this); IPG1/IPG2 alias the adjacency and weights but rebuild the 8-byte
// offset array in memory, since the file stores 4-byte degrees. Opening
// costs the validation pass and nothing else: Options.BuildInEdges makes
// the graph serve in-side reads from a heap-resident in-adjacency that the
// first such read derives (graph.WithInEdgesOnDemand; the out direction
// stays mapped), so a run that never pulls never builds it. That build
// reads the mapping like any other access, so after Close it panics with
// graph.ErrClosed instead. Options.KeepWeights is accepted and changes
// nothing, as for a binary file in Read: the weight section of an IPG2 or
// weighted IPG3 file is always aliased, and an unweighted file yields an
// unweighted graph. Options.MaxVertices bounds header-declared counts as
// in Read. On a big-endian host the sections are decoded into heap
// slices instead of aliased.
func OpenMapped(path string, opts Options) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("graphio: mmap %s: %w", path, err)
	}
	g, err := parseBinary(mapping(data), opts)
	if err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("graphio: %s: %w", path, err)
	}
	return &Mapped{g: g, mapping: data, path: path}, nil
}

// mapping serves a parser the sections of a whole file held in memory.
type mapping []byte

func (d mapping) total(size uint64) error {
	if size != uint64(len(d)) {
		return fmt.Errorf("file size %d, header implies %d", len(d), size)
	}
	return nil
}

func (d mapping) section(off, length uint64) ([]byte, error) {
	if off > uint64(len(d)) || length > uint64(len(d))-off {
		return nil, fmt.Errorf("section [%d,+%d) beyond file size %d", off, length, len(d))
	}
	return d[off : off+length], nil
}

// bigEndian makes view decode instead of alias: the files are
// little-endian. A variable so a test can force the decode path.
var bigEndian = func() bool {
	var one uint32 = 1
	return *(*byte)(unsafe.Pointer(&one)) != 1
}()

// view returns a byte section as a typed slice: an alias of b on a
// little-endian host, a decoded heap copy on a big-endian one. The
// caller guarantees b is aligned for T (a mapping is page-aligned, the
// IPG formats pad sections for it, and a stream reads each section into
// a fresh heap buffer).
func view[T ~uint32 | ~uint64](b []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	if len(b) < size {
		return nil
	}
	if !bigEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out
}
