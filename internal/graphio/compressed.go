package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ipregel/internal/graph"
)

// IPG3 is the on-disk form of the block-compressed adjacency backend
// (internal/graph/compressed.go). Unlike IPG1/IPG2 it stores the block
// arrays verbatim, so a load is a validation pass instead of a rebuild,
// and the mmap loader (mapped.go) can alias the file directly. Layout
// (all little-endian; sections padded so every array is naturally
// aligned when the file is mapped at a page boundary):
//
//	magic     [4]byte  "IPG3"
//	flags     uint32   bit 0: weighted (trailing weight section present)
//	base      uint32   smallest external identifier
//	blockSize uint32   vertices per block (graph.CompressedBlockSize)
//	n         uint64   vertex count
//	m         uint64   edge count
//	dataLen   uint64   varint stream length in bytes
//	deg       [n]uint32            out-degree per vertex
//	pad       to 8-byte alignment
//	blockOff  [nBlocks+1]uint64    byte offset of each block's stream
//	blockEdge [nBlocks+1]uint64    edge-count prefix at each block
//	data      [dataLen]byte        zigzag-varint delta stream
//	pad       to 4-byte alignment  (only when weighted)
//	weights   [m]uint32            per-edge weights in adjacency order
var binaryMagic3 = [4]byte{'I', 'P', 'G', '3'}

const ipg3Weighted = 1 << 0

// ipg3Layout holds the computed section offsets of an IPG3 file.
type ipg3Layout struct {
	nBlocks                           uint64
	degOff, blockOffOff, blockEdgeOff uint64
	dataOff, weightOff, total         uint64
}

func computeIPG3Layout(n, m, dataLen uint64, weighted bool) ipg3Layout {
	var l ipg3Layout
	l.nBlocks = (n + graph.CompressedBlockSize - 1) / graph.CompressedBlockSize
	l.degOff = 40
	end := l.degOff + n*4
	end += (8 - end%8) % 8
	l.blockOffOff = end
	end += (l.nBlocks + 1) * 8
	l.blockEdgeOff = end
	end += (l.nBlocks + 1) * 8
	l.dataOff = end
	end += dataLen
	l.total = end
	if weighted {
		end += (4 - end%4) % 4
		l.weightOff = end
		l.total = end + m*4
	}
	return l
}

// writeBinaryCompressed encodes a compressed-backend graph as IPG3.
// WriteBinary dispatches here, so the flat IPG1/IPG2 byte layouts are
// untouched.
func writeBinaryCompressed(w io.Writer, g *graph.Graph) error {
	p, ok := g.OutCompressedParts()
	if !ok {
		return fmt.Errorf("graphio: graph is not compressed")
	}
	weights := g.WeightData()
	l := computeIPG3Layout(uint64(g.N()), g.M(), uint64(len(p.Data)), weights != nil)
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [40]byte
	copy(hdr[0:], binaryMagic3[:])
	var flags uint32
	if weights != nil {
		flags |= ipg3Weighted
	}
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(g.Base()))
	binary.LittleEndian.PutUint32(hdr[12:], graph.CompressedBlockSize)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[24:], g.M())
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(p.Data)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	pos := uint64(40)
	pad := func(to uint64) error {
		for ; pos < to; pos++ {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
		}
		return nil
	}
	for _, d := range p.Deg {
		binary.LittleEndian.PutUint32(buf[:4], d)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		pos += 4
	}
	if err := pad(l.blockOffOff); err != nil {
		return err
	}
	for _, v := range p.BlockOff {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		pos += 8
	}
	for _, v := range p.BlockEdge {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		pos += 8
	}
	if _, err := bw.Write(p.Data); err != nil {
		return err
	}
	pos += uint64(len(p.Data))
	if weights != nil {
		if err := pad(l.weightOff); err != nil {
			return err
		}
		for _, wt := range weights {
			binary.LittleEndian.PutUint32(buf[:4], wt)
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
			pos += 4
		}
	}
	return bw.Flush()
}

// readBinaryCompressed decodes an IPG3 stream (magic already consumed).
// Every header count is bounds-checked before it sizes an allocation,
// and graph.NewCompressedOut re-validates the block arrays with a full
// decode sweep, so hostile inputs error — they never panic and never
// buy unbounded allocations under Options.MaxVertices.
func readBinaryCompressed(br io.Reader, opts Options) (*graph.Graph, error) {
	var hdr [36]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graphio: IPG3 header: %w", err)
	}
	flags := binary.LittleEndian.Uint32(hdr[0:])
	base := graph.VertexID(binary.LittleEndian.Uint32(hdr[4:]))
	blockSize := binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	m := binary.LittleEndian.Uint64(hdr[20:])
	dataLen := binary.LittleEndian.Uint64(hdr[28:])
	if flags&^uint32(ipg3Weighted) != 0 {
		return nil, fmt.Errorf("graphio: IPG3 unknown flags %#x", flags)
	}
	if blockSize != graph.CompressedBlockSize {
		return nil, fmt.Errorf("graphio: IPG3 block size %d, this build uses %d", blockSize, graph.CompressedBlockSize)
	}
	const maxN = 1 << 33
	// One varint per edge, 1–10 bytes each: anything outside that band
	// is a lying header.
	if n > maxN || m > maxN*16 || dataLen > 10*m || (m > 0 && dataLen < m) {
		return nil, fmt.Errorf("graphio: implausible IPG3 header n=%d m=%d dataLen=%d", n, m, dataLen)
	}
	if err := opts.checkCount(n); err != nil {
		return nil, err
	}
	if opts.Undirected || opts.Dedup {
		return nil, fmt.Errorf("graphio: Undirected/Dedup cannot be applied to an IPG3 file (already block-compressed)")
	}
	weighted := flags&ipg3Weighted != 0

	l := computeIPG3Layout(n, m, dataLen, weighted)
	nb := int(l.nBlocks)
	pos := uint64(40)
	skipTo := func(to uint64) error {
		if to < pos {
			return fmt.Errorf("graphio: IPG3 layout error")
		}
		_, err := io.CopyN(io.Discard, br, int64(to-pos))
		pos = to
		return err
	}
	readU32s := func(count uint64) ([]uint32, error) {
		raw := make([]byte, count*4)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, err
		}
		pos += count * 4
		out := make([]uint32, count)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
		return out, nil
	}
	readU64s := func(count int) ([]uint64, error) {
		raw := make([]byte, count*8)
		if _, err := io.ReadFull(br, raw); err != nil {
			return nil, err
		}
		pos += uint64(count) * 8
		out := make([]uint64, count)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		return out, nil
	}

	deg, err := readU32s(n)
	if err != nil {
		return nil, fmt.Errorf("graphio: IPG3 degrees: %w", err)
	}
	if err := skipTo(l.blockOffOff); err != nil {
		return nil, fmt.Errorf("graphio: IPG3 padding: %w", err)
	}
	blockOff, err := readU64s(nb + 1)
	if err != nil {
		return nil, fmt.Errorf("graphio: IPG3 block offsets: %w", err)
	}
	blockEdge, err := readU64s(nb + 1)
	if err != nil {
		return nil, fmt.Errorf("graphio: IPG3 block edges: %w", err)
	}
	if blockEdge[nb] != m {
		return nil, fmt.Errorf("graphio: IPG3 edge prefix %d != header m=%d", blockEdge[nb], m)
	}
	data := make([]byte, dataLen)
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, fmt.Errorf("graphio: IPG3 data: %w", err)
	}
	pos += dataLen
	var weights []uint32
	if weighted {
		if err := skipTo(l.weightOff); err != nil {
			return nil, fmt.Errorf("graphio: IPG3 padding: %w", err)
		}
		if weights, err = readU32s(m); err != nil {
			return nil, fmt.Errorf("graphio: IPG3 weights: %w", err)
		}
	}
	g, err := graph.NewCompressedOut(base, int(n), graph.CompressedParts{
		Deg: deg, BlockOff: blockOff, BlockEdge: blockEdge, Data: data,
	}, weights)
	if err != nil {
		return nil, fmt.Errorf("graphio: IPG3: %w", err)
	}
	if opts.BuildInEdges {
		// Derived from the finished out-adjacency by whoever first reads
		// the in side, as in OpenMapped.
		g = g.WithInEdgesOnDemand()
	}
	return g, nil
}
