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
// and both loaders (OpenMapped, ReadBinary) alias the file's sections.
// Layout (all little-endian; sections padded so every array is naturally
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

// parseIPG3 parses an IPG3 file (magic already read). All four block
// arrays and the weights alias their sections, and graph.NewCompressedOut
// re-validates the block arrays with a full decode sweep, so hostile
// inputs error — they never panic.
func parseIPG3(s sections, opts Options) (*graph.Graph, error) {
	hdr, err := s.section(4, 36)
	if err != nil {
		return nil, fmt.Errorf("IPG3 header: %w", err)
	}
	flags := binary.LittleEndian.Uint32(hdr[0:])
	base := graph.VertexID(binary.LittleEndian.Uint32(hdr[4:]))
	blockSize := binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	m := binary.LittleEndian.Uint64(hdr[20:])
	dataLen := binary.LittleEndian.Uint64(hdr[28:])
	if flags&^uint32(ipg3Weighted) != 0 {
		return nil, fmt.Errorf("IPG3 unknown flags %#x", flags)
	}
	if blockSize != graph.CompressedBlockSize {
		return nil, fmt.Errorf("IPG3 block size %d, this build uses %d", blockSize, graph.CompressedBlockSize)
	}
	const maxN = 1 << 33
	// One varint per edge, 1–10 bytes each: anything outside that band
	// is a lying header.
	if n > maxN || m > maxN*16 || dataLen > 10*m || (m > 0 && dataLen < m) {
		return nil, fmt.Errorf("implausible IPG3 header n=%d m=%d dataLen=%d", n, m, dataLen)
	}
	// The in-adjacency and Decompress build flat 4-byte offsets.
	if err := graph.EdgesFit(m); err != nil {
		return nil, err
	}
	if err := opts.checkCount(n); err != nil {
		return nil, err
	}
	weighted := flags&ipg3Weighted != 0
	l := computeIPG3Layout(n, m, dataLen, weighted)
	if err := s.total(l.total); err != nil {
		return nil, err
	}
	degB, err := s.section(l.degOff, n*4)
	if err != nil {
		return nil, err
	}
	boB, err := s.section(l.blockOffOff, (l.nBlocks+1)*8)
	if err != nil {
		return nil, err
	}
	beB, err := s.section(l.blockEdgeOff, (l.nBlocks+1)*8)
	if err != nil {
		return nil, err
	}
	data, err := s.section(l.dataOff, dataLen)
	if err != nil {
		return nil, err
	}
	var weights []uint32
	if weighted {
		wB, err := s.section(l.weightOff, m*4)
		if err != nil {
			return nil, err
		}
		weights = view[uint32](wB)
	}
	return graph.NewCompressedOut(base, int(n), graph.CompressedParts{
		Deg: view[uint32](degB), BlockOff: view[uint64](boB), BlockEdge: view[uint64](beB), Data: data,
	}, weights)
}
