package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ipregel/internal/graph"
)

// Binary format layout (all little-endian):
//
//	magic   [4]byte  "IPG1"
//	base    uint32   smallest external identifier
//	n       uint64   vertex count
//	m       uint64   edge count
//	degrees [n]uint32   out-degree per vertex
//	adj     [m]uint32   concatenated adjacency (internal indices)
//
// Degrees rather than offsets are stored so the file stays 4 bytes per
// vertex; offsets are rebuilt on load. This mirrors the paper's
// "graph binary size" accounting (§7.4.2: identifiers of a vertex and its
// out-neighbours, 4 bytes each).

var (
	binaryMagic = [4]byte{'I', 'P', 'G', '1'}
	// binaryMagicW marks the weighted variant: the same layout followed
	// by [m]uint32 edge weights in adjacency order.
	binaryMagicW = [4]byte{'I', 'P', 'G', '2'}
)

// BinarySizeBytes returns the exact on-disk size of the binary encoding of
// a graph with n vertices and m edges — the quantity the paper calls the
// graph's "binary size" when separating graph storage from framework
// overhead (§7.4.2).
func BinarySizeBytes(n int, m uint64) uint64 {
	return 4 + 4 + 8 + 8 + uint64(n)*4 + m*4
}

// WriteBinary encodes g in the compact binary format; weighted graphs
// use the IPG2 variant and keep their weights, and compressed-backend
// graphs use the IPG3 variant (compressed.go) — the flat IPG1/IPG2
// byte layouts never change.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	if g.IsCompressed() {
		return writeBinaryCompressed(w, g)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	magic := binaryMagic
	if g.HasWeights() {
		magic = binaryMagicW
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.Base()))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[12:], g.M())
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for i := 0; i < g.N(); i++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(g.OutDegree(i)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	var werr error
	if g.HasWeights() {
		for u := 0; u < g.N() && werr == nil; u++ {
			adj, _ := g.OutEdgesWeighted(u)
			for _, d := range adj {
				binary.LittleEndian.PutUint32(buf[:], uint32(d))
				if _, werr = bw.Write(buf[:]); werr != nil {
					break
				}
			}
		}
		for u := 0; u < g.N() && werr == nil; u++ {
			_, ws := g.OutEdgesWeighted(u)
			for _, wt := range ws {
				binary.LittleEndian.PutUint32(buf[:], wt)
				if _, werr = bw.Write(buf[:]); werr != nil {
					break
				}
			}
		}
	} else {
		g.Edges(func(_, d graph.VertexID) bool {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			_, werr = bw.Write(buf[:])
			return werr == nil
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadBinary decodes a graph written by WriteBinary with the parser
// OpenMapped uses: it reads each section the header declares into a
// buffer of exactly that size, and the graph's arrays alias the buffers
// as they would alias a mapping. A regular *os.File (as ReadFile passes)
// is checked against the declared size before any section is read; any
// other reader grows a buffer only as the input supplies bytes, so a
// header that lies about the size costs at most twice the bytes actually
// there. Input shorter or longer than the header declares is an error.
func ReadBinary(r io.Reader, opts Options) (*graph.Graph, error) {
	s := &stream{r: r, size: -1}
	if f, ok := r.(*os.File); ok {
		s.size = remaining(f)
	}
	g, err := parseBinary(s, opts)
	if err == nil {
		switch n, rerr := io.ReadFull(r, make([]byte, 1)); {
		case n != 0:
			err = fmt.Errorf("input longer than its header declares")
		case rerr != io.EOF:
			err = fmt.Errorf("after the last section: %w", rerr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// remaining returns the bytes left to read in f, or -1 when f is not a
// regular file.
func remaining(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return -1
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	return st.Size() - pos
}

// sections serves a binary parser the byte ranges of one file, in
// increasing offset order: slices of the file for OpenMapped (mapping),
// fresh buffers read from a stream for ReadBinary (stream).
type sections interface {
	// total reports an error when the input is known not to be size
	// bytes long.
	total(size uint64) error
	// section returns the length bytes at off.
	section(off, length uint64) ([]byte, error)
}

// stream reads the sections of a binary file from r.
type stream struct {
	r    io.Reader
	pos  uint64
	size int64 // bytes in r, or -1 when unknown
}

func (s *stream) total(size uint64) error {
	if s.size >= 0 && uint64(s.size) != size {
		return fmt.Errorf("file size %d, header implies %d", s.size, size)
	}
	return nil
}

func (s *stream) section(off, length uint64) ([]byte, error) {
	if _, err := io.CopyN(io.Discard, s.r, int64(off-s.pos)); err != nil {
		return nil, fmt.Errorf("padding before %d: %w", off, err)
	}
	// A known size, which total has checked, bounds length already;
	// otherwise start small and double, so a lying header buys no more
	// than the input holds.
	first := length
	if s.size < 0 {
		first = min(length, 1<<16)
	}
	buf := make([]byte, 0, first)
	for uint64(len(buf)) < length {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(length, 2*uint64(cap(buf))))
			copy(grown, buf)
			buf = grown
		}
		n, err := io.ReadFull(s.r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, fmt.Errorf("section [%d,+%d): %w", off, length, err)
		}
	}
	s.pos = off + length
	return buf, nil
}

// parseBinary parses an IPG1, IPG2 or IPG3 file, whichever its magic
// names. It is the only binary parser: OpenMapped and ReadBinary differ
// only in the sections they hand it. Every header count is
// bounds-checked, and checked against the input's size, before it sizes
// anything.
func parseBinary(s sections, opts Options) (*graph.Graph, error) {
	if opts.Undirected || opts.Dedup {
		return nil, fmt.Errorf("Undirected and Dedup cannot rewrite a binary graph; only BuildInEdges, KeepWeights and MaxVertices apply")
	}
	head, err := s.section(0, 4)
	if err != nil {
		return nil, fmt.Errorf("binary header: %w", err)
	}
	var g *graph.Graph
	switch magic := [4]byte(head); magic {
	case binaryMagic3:
		g, err = parseIPG3(s, opts)
	case binaryMagic, binaryMagicW:
		g, err = parseIPG1(s, magic == binaryMagicW, opts)
	default:
		return nil, fmt.Errorf("bad magic %q (want IPG1, IPG2 or IPG3)", magic)
	}
	if err != nil {
		return nil, err
	}
	if opts.BuildInEdges {
		// Derived from the finished out-adjacency by whoever first reads
		// the in side.
		g = g.WithInEdgesOnDemand()
	}
	return g, nil
}

// parseIPG1 parses IPG1 and its weighted variant IPG2 (magic already
// read). The adjacency and weights alias their sections; the 4-byte
// offset array is rebuilt on the heap from the file's 4-byte degrees —
// 4 heap bytes per vertex, far below a heap adjacency. A header declaring
// more edges than one direction holds is ErrTooManyEdges before any
// section is read.
func parseIPG1(s sections, weighted bool, opts Options) (*graph.Graph, error) {
	hdr, err := s.section(4, 20)
	if err != nil {
		return nil, fmt.Errorf("binary header: %w", err)
	}
	base := graph.VertexID(binary.LittleEndian.Uint32(hdr[0:]))
	n := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	const maxN = 1 << 33
	if n > maxN || m > maxN*16 {
		return nil, fmt.Errorf("implausible binary header n=%d m=%d", n, m)
	}
	if err := graph.EdgesFit(m); err != nil {
		return nil, err
	}
	if err := opts.checkCount(n); err != nil {
		return nil, err
	}
	size := 24 + n*4 + m*4
	if weighted {
		size += m * 4
	}
	if err := s.total(size); err != nil {
		return nil, err
	}
	degB, err := s.section(24, n*4)
	if err != nil {
		return nil, err
	}
	deg := view[uint32](degB)
	// Degrees summing past 2^32 wrap, which FromCSR refuses as
	// non-monotone offsets.
	outOff := make([]uint32, n+1)
	for i := uint64(0); i < n; i++ {
		outOff[i+1] = outOff[i] + deg[i]
	}
	if uint64(outOff[n]) != m {
		return nil, fmt.Errorf("binary degree sum %d != header m=%d", outOff[n], m)
	}
	adjB, err := s.section(24+n*4, m*4)
	if err != nil {
		return nil, err
	}
	var weights []uint32
	if weighted {
		wB, err := s.section(24+n*4+m*4, m*4)
		if err != nil {
			return nil, err
		}
		weights = view[uint32](wB)
	}
	return graph.FromCSR(base, outOff, view[graph.VertexID](adjB), weights)
}
