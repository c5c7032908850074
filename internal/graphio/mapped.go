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
// boundary. The file is validated eagerly on open (one sequential pass,
// after which the pages are evictable), so the graph the engine sees is
// exactly as trustworthy as a heap-loaded one.
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

// OpenMapped maps an IPG1/IPG2/IPG3 file and wraps it as a Graph whose
// adjacency aliases the mapping. IPG3 aliases every section (the file
// was written with natural alignment for exactly this); IPG1/IPG2 alias
// the adjacency and weights but rebuild the 8-byte offset array in
// memory, since the file stores 4-byte degrees. Opening costs the
// validation pass and nothing else: Options.BuildInEdges makes the graph
// serve in-side reads from a heap-resident in-adjacency that the first
// such read derives (graph.WithInEdgesOnDemand; the out direction stays
// mapped), so a run that never pulls never builds it. That build reads
// the mapping like any other access, so after Close it panics with
// graph.ErrClosed instead. Options.KeepWeights is accepted and changes
// nothing, as for a binary file in Read: the weight section of an IPG2 or
// weighted IPG3 file is always aliased, and an unweighted file yields an
// unweighted graph. Options.MaxVertices bounds header-declared counts as
// in Read.
// Only little-endian hosts can alias the (little-endian) file.
func OpenMapped(path string, opts Options) (*Mapped, error) {
	if hostIsBigEndian() {
		return nil, fmt.Errorf("graphio: OpenMapped requires a little-endian host")
	}
	if opts.Undirected || opts.Dedup {
		return nil, fmt.Errorf("graphio: OpenMapped supports only BuildInEdges, KeepWeights and MaxVertices options")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 24 {
		return nil, fmt.Errorf("graphio: %s: too short for a binary graph header", path)
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("graphio: mmap %s: %w", path, err)
	}
	m := &Mapped{mapping: data, path: path}
	g, err := mappedGraph(data, opts)
	if err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("graphio: %s: %w", path, err)
	}
	if opts.BuildInEdges {
		g = g.WithInEdgesOnDemand()
	}
	m.g = g
	return m, nil
}

func hostIsBigEndian() bool {
	var one uint32 = 1
	return *(*byte)(unsafe.Pointer(&one)) != 1
}

// u32view and u64view alias a byte section as a typed slice. The caller
// guarantees 4-/8-byte alignment (the IPG formats pad sections for it;
// the mapping itself is page-aligned).
func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func u64view(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func idView(b []byte) []graph.VertexID {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*graph.VertexID)(unsafe.Pointer(&b[0])), len(b)/4)
}

// section bounds-checks [off, off+length) against the mapping.
func section(data []byte, off, length uint64) ([]byte, error) {
	if off > uint64(len(data)) || length > uint64(len(data))-off {
		return nil, fmt.Errorf("section [%d,+%d) beyond file size %d", off, length, len(data))
	}
	return data[off : off+length], nil
}

func mappedGraph(data []byte, opts Options) (*graph.Graph, error) {
	var magic [4]byte
	copy(magic[:], data)
	switch magic {
	case binaryMagic3:
		return mappedIPG3(data, opts)
	case binaryMagic, binaryMagicW:
		return mappedIPG1(data, magic == binaryMagicW, opts)
	}
	return nil, fmt.Errorf("bad magic %q (mmap supports IPG1/IPG2/IPG3)", magic)
}

// mappedIPG3 aliases all four block arrays straight out of the file and
// runs the same full validation as the streaming reader.
func mappedIPG3(data []byte, opts Options) (*graph.Graph, error) {
	if len(data) < 40 {
		return nil, fmt.Errorf("IPG3 header truncated")
	}
	flags := binary.LittleEndian.Uint32(data[4:])
	base := graph.VertexID(binary.LittleEndian.Uint32(data[8:]))
	blockSize := binary.LittleEndian.Uint32(data[12:])
	n := binary.LittleEndian.Uint64(data[16:])
	m := binary.LittleEndian.Uint64(data[24:])
	dataLen := binary.LittleEndian.Uint64(data[32:])
	if flags&^uint32(ipg3Weighted) != 0 {
		return nil, fmt.Errorf("IPG3 unknown flags %#x", flags)
	}
	if blockSize != graph.CompressedBlockSize {
		return nil, fmt.Errorf("IPG3 block size %d, this build uses %d", blockSize, graph.CompressedBlockSize)
	}
	const maxN = 1 << 33
	if n > maxN || m > maxN*16 || dataLen > 10*m || (m > 0 && dataLen < m) {
		return nil, fmt.Errorf("implausible IPG3 header n=%d m=%d dataLen=%d", n, m, dataLen)
	}
	if err := opts.checkCount(n); err != nil {
		return nil, err
	}
	weighted := flags&ipg3Weighted != 0
	l := computeIPG3Layout(n, m, dataLen, weighted)
	if l.total != uint64(len(data)) {
		return nil, fmt.Errorf("IPG3 size %d, header implies %d", len(data), l.total)
	}
	degB, err := section(data, l.degOff, n*4)
	if err != nil {
		return nil, err
	}
	boB, err := section(data, l.blockOffOff, (l.nBlocks+1)*8)
	if err != nil {
		return nil, err
	}
	beB, err := section(data, l.blockEdgeOff, (l.nBlocks+1)*8)
	if err != nil {
		return nil, err
	}
	stream, err := section(data, l.dataOff, dataLen)
	if err != nil {
		return nil, err
	}
	var weights []uint32
	if weighted {
		wB, err := section(data, l.weightOff, m*4)
		if err != nil {
			return nil, err
		}
		weights = u32view(wB)
	}
	return graph.NewCompressedOut(base, int(n), graph.CompressedParts{
		Deg: u32view(degB), BlockOff: u64view(boB), BlockEdge: u64view(beB), Data: stream,
	}, weights)
}

// mappedIPG1 aliases the adjacency (and IPG2 weights) out of the file;
// the uint64 offset array is rebuilt on the heap from the file's 4-byte
// degrees — 8 heap bytes per vertex, still far below a heap adjacency.
func mappedIPG1(data []byte, weighted bool, opts Options) (*graph.Graph, error) {
	base := graph.VertexID(binary.LittleEndian.Uint32(data[4:]))
	n := binary.LittleEndian.Uint64(data[8:])
	m := binary.LittleEndian.Uint64(data[16:])
	const maxN = 1 << 33
	if n > maxN || m > maxN*16 {
		return nil, fmt.Errorf("implausible binary header n=%d m=%d", n, m)
	}
	if err := opts.checkCount(n); err != nil {
		return nil, err
	}
	want := 24 + n*4 + m*4
	if weighted {
		want += m * 4
	}
	if want != uint64(len(data)) {
		return nil, fmt.Errorf("binary file size %d, header implies %d", len(data), want)
	}
	degB, err := section(data, 24, n*4)
	if err != nil {
		return nil, err
	}
	adjB, err := section(data, 24+n*4, m*4)
	if err != nil {
		return nil, err
	}
	deg := u32view(degB)
	outOff := make([]uint64, n+1)
	for i := uint64(0); i < n; i++ {
		outOff[i+1] = outOff[i] + uint64(deg[i])
	}
	if outOff[n] != m {
		return nil, fmt.Errorf("binary degree sum %d != header m=%d", outOff[n], m)
	}
	var weights []uint32
	if weighted {
		wB, err := section(data, 24+n*4+m*4, m*4)
		if err != nil {
			return nil, err
		}
		weights = u32view(wB)
	}
	return graph.FromCSR(base, outOff, idView(adjB), weights)
}
