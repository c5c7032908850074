package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Compressed adjacency: the memory-efficiency tier of the follow-up
// paper ("programmability vs memory efficiency and performance"). The
// neighbour lists are stored as zigzag-varint deltas in fixed blocks of
// CompressedBlockSize vertices: per-vertex degrees stay uncompressed (an
// O(1) OutDegree, which PageRank's rank division needs on the hot path),
// and each block records the byte offset and edge prefix of its first
// vertex. Random access to vertex i sums the block's degrees before i and
// skips that many varints a word at a time (locate); access in vertex
// order skips nothing, because a NeighborBuf remembers where the vertex it
// decoded last ended and blocks are contiguous, and access to a later
// vertex of the same block skips only the varints in between.
//
// The encoding is order-preserving: deltas are signed (zigzag), so
// compressing an existing flat CSR reproduces the exact neighbour order
// on decode. That is what makes compressed execution bit-identical to
// flat execution even for order-sensitive floating-point combining —
// the parity battery in internal/algorithms depends on it. Sorted
// adjacency (Builder.SortAdjacency) makes the deltas small and the
// ratio good, but is not required for correctness.
//
// A compressed Graph cannot hand out shared []VertexID slices, so the
// slice accessors (OutNeighbors, InNeighbors, OutEdgesWeighted) panic
// with ErrCompressedAdjacency. Callers use the iterator path instead:
// ForEachOutNeighbor / ForEachInNeighbor stream without allocating, and
// OutNeighborsWith / InNeighborsWith decode into a caller-owned
// NeighborBuf (one per worker in internal/core). On a flat graph the
// *With accessors return the shared CSR slice unchanged — zero copies,
// zero behaviour change for the default backend.

// CompressedBlockSize is the number of vertices per compression block.
// 64 keeps the block tables at ~0.25 bytes/vertex while bounding a
// random access's skip to one cache-resident varint run.
const CompressedBlockSize = 64

// ErrCompressedAdjacency is panicked on by the shared-slice accessors
// (OutNeighbors, InNeighbors, OutEdgesWeighted) and the weighted
// Transpose, and returned by StripOutAdjacency, when the graph uses the
// compressed backend. Use the iterator accessors, or Decompress
// first.
var ErrCompressedAdjacency = errors.New("graph: adjacency is block-compressed; use the iterator accessors (ForEachOutNeighbor, OutNeighborsWith) or Decompress")

// errCorruptBlock guards the hot decode path. It cannot fire on a graph
// built by Compress or admitted by NewCompressedOut, both of which
// validate every block; it exists so a memory-corruption bug fails
// loudly instead of reading out of bounds.
var errCorruptBlock = errors.New("graph: corrupt compressed adjacency block")

// compressedAdj is one direction's block-compressed adjacency.
type compressedAdj struct {
	n int
	m uint64
	// deg[i] is vertex i's degree (uncompressed, O(1) degree queries).
	deg []uint32
	// blockOff[b] is the byte offset in data of block b's first varint;
	// blockOff[nBlocks] == len(data). Blocks are contiguous.
	blockOff []uint64
	// blockEdge[b] is the edge-count prefix sum at block b's first
	// vertex; blockEdge[nBlocks] == m.
	blockEdge []uint64
	// data is the varint stream: one zigzag-encoded delta per edge,
	// per-vertex (the delta base resets to 0 at each vertex).
	data []byte
}

// zigzag maps a signed delta to an unsigned varint payload so small
// negative deltas stay short.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends x in LEB128 form.
func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// readUvarint is the hostile-input decoder: it errors on truncation and
// on varints longer than the 10 bytes a uint64 can need, instead of
// panicking or looping.
func readUvarint(b []byte, pos uint64) (uint64, uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < 10; i++ {
		if pos >= uint64(len(b)) {
			return 0, 0, errors.New("graph: truncated varint")
		}
		c := b[pos]
		pos++
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, 0, errors.New("graph: varint overflows uint64")
			}
			return x | uint64(c)<<s, pos, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0, errors.New("graph: varint longer than 10 bytes")
}

// compressCSR encodes a flat CSR into blocks, preserving neighbour
// order exactly.
func compressCSR(n int, off []uint32, adj []VertexID) *compressedAdj {
	if len(off) == 0 {
		// Zero-value empty graph: nil offsets stand for n == 0.
		off = []uint32{0}
	}
	nb := (n + CompressedBlockSize - 1) / CompressedBlockSize
	c := &compressedAdj{
		n:         n,
		m:         uint64(off[n]),
		deg:       make([]uint32, n),
		blockOff:  make([]uint64, nb+1),
		blockEdge: make([]uint64, nb+1),
	}
	buf := make([]byte, 0, c.m+c.m/2+16)
	for b := 0; b < nb; b++ {
		c.blockOff[b] = uint64(len(buf))
		c.blockEdge[b] = uint64(off[b*CompressedBlockSize])
		end := (b + 1) * CompressedBlockSize
		if end > n {
			end = n
		}
		for i := b * CompressedBlockSize; i < end; i++ {
			c.deg[i] = off[i+1] - off[i]
			prev := int64(0)
			for _, v := range adj[off[i]:off[i+1]] {
				buf = appendUvarint(buf, zigzag(int64(v)-prev))
				prev = int64(v)
			}
		}
	}
	c.blockOff[nb] = uint64(len(buf))
	c.blockEdge[nb] = c.m
	// Copy to exact size: the estimate above can overshoot and the
	// whole point of this backend is the footprint.
	c.data = make([]byte, len(buf))
	copy(c.data, buf)
	return c
}

// newCompressedAdj admits externally supplied block arrays (the IPG3
// reader, the mmap loader) after full validation (check): shape,
// monotone offsets, degree/edge-prefix consistency, and a complete
// decode sweep proving every varint is well-formed, every neighbour is
// in range, and every block consumes exactly its byte span. It never
// panics on hostile input.
func newCompressedAdj(n int, deg []uint32, blockOff, blockEdge []uint64, data []byte) (*compressedAdj, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	nb := (n + CompressedBlockSize - 1) / CompressedBlockSize
	if len(deg) != n {
		return nil, fmt.Errorf("graph: degree array length %d, want %d", len(deg), n)
	}
	if len(blockOff) != nb+1 || len(blockEdge) != nb+1 {
		return nil, fmt.Errorf("graph: block table length %d/%d, want %d", len(blockOff), len(blockEdge), nb+1)
	}
	c := &compressedAdj{n: n, m: blockEdge[nb], deg: deg, blockOff: blockOff, blockEdge: blockEdge, data: data}
	if err := c.check(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkSpanFloor is the fewest stream bytes check's block sweep hands
// one goroutine: a stream shorter than two floors, and any stream at
// GOMAXPROCS=1, is swept on the calling goroutine with no goroutine
// started. A floor is 0.2–0.4 ms of decoding; two spans of one floor
// each were clearly faster than one sweep, two of half a floor were not
// (DESIGN.md §13.2). Tests lower it so small graphs take the parallel
// path; it is not a knob.
var checkSpanFloor uint64 = 64 << 10

// checkParts is the number of spans check's block sweep cuts a stream of
// n bytes into: GOMAXPROCS, fewer when a span would hold less than
// checkSpanFloor bytes, and never fewer than one.
func checkParts(n uint64) int {
	return int(min(uint64(runtime.GOMAXPROCS(0)), max(n/checkSpanFloor, 1)))
}

// check verifies all structural invariants including a full decode
// sweep. Graph.Validate calls it; newCompressedAdj relies on it. The
// block table is checked first, serially (checkTable); the per-block
// sweep then runs in checkParts spans (checkSpans).
func (c *compressedAdj) check() error {
	if err := c.checkTable(); err != nil {
		return err
	}
	return c.checkSpans(checkParts(uint64(len(c.data))))
}

// checkTable checks the block table's ends and that it is monotone
// within the data, before any block is decoded.
func (c *compressedAdj) checkTable() error {
	nb := len(c.blockOff) - 1
	if c.blockOff[0] != 0 {
		return fmt.Errorf("graph: blockOff[0] = %d, want 0", c.blockOff[0])
	}
	if c.blockEdge[0] != 0 {
		return fmt.Errorf("graph: blockEdge[0] = %d, want 0", c.blockEdge[0])
	}
	if c.blockOff[nb] != uint64(len(c.data)) {
		return fmt.Errorf("graph: blockOff[last] = %d, want data length %d", c.blockOff[nb], len(c.data))
	}
	if c.blockEdge[nb] != c.m {
		return fmt.Errorf("graph: blockEdge[last] = %d, want m=%d", c.blockEdge[nb], c.m)
	}
	// The whole table before the first decode: the sweep below slices
	// data by blockOff, so an interior entry past len(data) must be
	// rejected here, not after the blocks before it have been walked.
	for b := 0; b < nb; b++ {
		if c.blockOff[b+1] < c.blockOff[b] || c.blockOff[b+1] > uint64(len(c.data)) {
			return fmt.Errorf("graph: block byte offsets not monotone within the data at %d", b)
		}
		if c.blockEdge[b+1] < c.blockEdge[b] {
			return fmt.Errorf("graph: block edge prefixes not monotone at %d", b)
		}
	}
	return nil
}

// spanCuts cuts blocks [0, nb) into parts spans of equal stream bytes:
// span p is blocks [cut[p], cut[p+1]), the blocks that start in the p-th
// share of data. A binary search of blockOff places each cut, which is
// safe once checkTable has proved the table monotone and inside data.
// The cut is not at equal block counts: RMAT puts its heavy vertices at
// low ids, and an equal-block cut hands one span most of the stream.
func (c *compressedAdj) spanCuts(parts int) []int {
	nb := len(c.blockOff) - 1
	cut := make([]int, parts+1)
	cut[parts] = nb
	for p := 1; p < parts; p++ {
		cut[p], _ = slices.BinarySearch(c.blockOff[:nb], uint64(len(c.data))/uint64(parts)*uint64(p))
	}
	return cut
}

// checkSpans runs the block sweep as the parts spans of spanCuts, the
// first on the calling goroutine and each other non-empty one on its
// own; parts == 1 is the serial sweep and starts no goroutine. Each span
// stops at its first bad block, and checkSpans returns the error of the
// lowest span that failed: the first bad block's, exactly what the
// serial sweep returns.
func (c *compressedAdj) checkSpans(parts int) error {
	cut := c.spanCuts(parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		if cut[p] == cut[p+1] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = c.checkBlocks(cut[p], cut[p+1])
		}()
	}
	errs[0] = c.checkBlocks(0, cut[1])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkBlocks sweeps blocks [lo, hi) in order and returns the first bad
// block's error. Each block is checked against its own degree slice and
// blockOff span only, so disjoint ranges can be swept concurrently; the
// block table must already have passed check.
func (c *compressedAdj) checkBlocks(lo, hi int) error {
	for b := lo; b < hi; b++ {
		// Degrees must reproduce the edge prefix.
		end := (b + 1) * CompressedBlockSize
		if end > c.n {
			end = c.n
		}
		var sum uint64
		for i := b * CompressedBlockSize; i < end; i++ {
			sum += uint64(c.deg[i])
		}
		if got := c.blockEdge[b+1] - c.blockEdge[b]; got != sum {
			return fmt.Errorf("graph: block %d edge prefix %d != degree sum %d", b, got, sum)
		}
		// Decode sweep: every varint well-formed, every neighbour in
		// range, and the block consumes exactly its byte span. Varints of
		// one to three bytes — nearly every delta of a sorted adjacency —
		// are taken inline when three bytes of the span remain; longer
		// ones, and the span's last few, go through readUvarint, which
		// also words every rejection.
		blk := c.data[:c.blockOff[b+1]]
		pos := c.blockOff[b]
		for i := b * CompressedBlockSize; i < end; i++ {
			prev := int64(0)
			for k := c.deg[i]; k > 0; k-- {
				var u uint64
				np := pos
				if pos+3 <= uint64(len(blk)) {
					b0, b1, b2 := uint64(blk[pos]), uint64(blk[pos+1]), uint64(blk[pos+2])
					switch {
					case b0 < 0x80:
						u, np = b0, pos+1
					case b1 < 0x80:
						u, np = b0&0x7f|b1<<7, pos+2
					case b2 < 0x80:
						u, np = b0&0x7f|(b1&0x7f)<<7|b2<<14, pos+3
					}
				}
				if np == pos {
					var err error
					if u, np, err = readUvarint(blk, pos); err != nil {
						return fmt.Errorf("graph: block %d vertex %d: %w", b, i, err)
					}
				}
				pos = np
				prev += unzigzag(u)
				if prev < 0 || prev >= int64(c.n) {
					return fmt.Errorf("graph: block %d vertex %d: neighbour %d out of range (n=%d)", b, i, prev, c.n)
				}
			}
		}
		if pos != c.blockOff[b+1] {
			return fmt.Errorf("graph: block %d decoded %d bytes, span is %d", b, pos-c.blockOff[b], c.blockOff[b+1]-c.blockOff[b])
		}
	}
	return nil
}

// locate returns the byte position of vertex i's first varint and the
// edge index of its first neighbour, from one pass over the block's
// degree prefix: the k edges (one varint each) the block holds before i.
func (c *compressedAdj) locate(i int) (pos, edge uint64) {
	b := i / CompressedBlockSize
	var k uint64
	for _, d := range c.deg[b*CompressedBlockSize : i] {
		k += uint64(d)
	}
	return skipVarints(c.data, c.blockOff[b], k), c.blockEdge[b] + k
}

// varintEnds selects the high bit of every byte in a word: clear on the
// one byte that ends a varint.
const varintEnds = 0x8080808080808080

// wordEnds counts the varints that end within the little-endian word at
// the front of b.
func wordEnds(b []byte) uint64 {
	return uint64(bits.OnesCount64(^binary.LittleEndian.Uint64(b) & varintEnds))
}

// skipVarints returns the position just past the k varints that start at
// pos. A word is consumed whole only while it holds fewer than k ends —
// at exactly k its tail may already belong to varint k+1 — so four words
// go at once while k exceeds the 32 ends they can hold, one at a time
// after that, and the byte loop finishes the last few varints and any
// tail within 8 bytes of the end of data. Every load is bounds-checked,
// so a mapped file is never over-read.
func skipVarints(data []byte, pos, k uint64) uint64 {
	for k > 32 && pos+32 <= uint64(len(data)) {
		w := data[pos : pos+32]
		k -= wordEnds(w) + wordEnds(w[8:]) + wordEnds(w[16:]) + wordEnds(w[24:])
		pos += 32
	}
	for pos+8 <= uint64(len(data)) {
		ends := wordEnds(data[pos:])
		if ends >= k {
			break
		}
		k -= ends
		pos += 8
	}
	for ; k > 0; k-- {
		for data[pos]&0x80 != 0 {
			pos++
		}
		pos++
	}
	return pos
}

// decode fills dst with the len(dst) neighbours whose deltas start at
// pos, the first taken against prev (0 at a vertex's first neighbour),
// and returns the position after them. It is the one hot decode loop: a
// one-byte varint never enters the continuation loop, and every
// neighbour is range-checked (errCorruptBlock).
func (c *compressedAdj) decode(pos uint64, prev VertexID, dst []VertexID) uint64 {
	data, n, v := c.data, uint64(c.n), int64(prev)
	for j := range dst {
		u := uint64(data[pos])
		pos++
		if u >= 0x80 {
			u &= 0x7f
			for s := uint(7); ; s += 7 {
				b := data[pos]
				pos++
				u |= uint64(b&0x7f) << s
				if b < 0x80 {
					break
				}
			}
		}
		v += unzigzag(u)
		if uint64(v) >= n {
			panic(errCorruptBlock)
		}
		dst[j] = VertexID(v)
	}
	return pos
}

// visitFrom streams the d neighbours at pos through a stack buffer, no
// heap buffer needed.
func (c *compressedAdj) visitFrom(pos uint64, d uint32, fn func(VertexID)) {
	var piece [64]VertexID
	prev := VertexID(0)
	for left := int(d); left > 0; {
		part := piece[:min(left, len(piece))]
		pos = c.decode(pos, prev, part)
		for _, v := range part {
			fn(v)
		}
		prev = part[len(part)-1]
		left -= len(part)
	}
}

// visit streams vertex i's neighbours.
func (c *compressedAdj) visit(i int, fn func(VertexID)) {
	pos, _ := c.locate(i)
	c.visitFrom(pos, c.deg[i], fn)
}

// scan walks the whole stream in vertex order: the cursor makes every
// step a continuation, so it is one linear pass. Stops early if fn
// returns false.
func (c *compressedAdj) scan(fn func(u int, v VertexID) bool) {
	var nb NeighborBuf
	for u := range c.deg {
		ns, _ := nb.neighbors(c, u)
		for _, v := range ns {
			if !fn(u, v) {
				return
			}
		}
	}
}

// memoryBytes is the heap (or mapped) footprint of this direction.
func (c *compressedAdj) memoryBytes() uint64 {
	return uint64(len(c.deg))*4 + uint64(len(c.blockOff))*8 + uint64(len(c.blockEdge))*8 + uint64(len(c.data))
}

// IsCompressed reports whether the graph uses the block-compressed
// adjacency backend (in either direction).
func (g *Graph) IsCompressed() bool { return g.outC != nil || g.inC != nil }

// Compress returns a graph storing the same adjacency (both directions,
// when in-edges are present) in block-compressed form, preserving
// neighbour order exactly. Weights stay flat (a parallel per-edge
// array, addressed by the edge index locate returns). The receiver is unchanged; a
// compressed receiver is returned as-is. It fails on a graph reduced by
// StripOutAdjacency, whose neighbour lists no longer exist.
func (g *Graph) Compress() (*Graph, error) {
	if g.outC != nil {
		return g, nil
	}
	if g.outAdj == nil && g.M() > 0 {
		return nil, ErrNoOutAdjacency
	}
	g = g.in()
	ng := &Graph{n: g.n, base: g.base, outC: compressCSR(g.n, g.outOff, g.outAdj), outW: g.outW}
	if g.inOff != nil {
		ng.inC = compressCSR(g.n, g.inOff, g.inAdj)
	}
	return ng, nil
}

// Decompress returns a flat-CSR graph with the same adjacency (both
// directions), neighbour order preserved. A flat receiver is returned
// as-is; an over-cap compressed one panics with ErrTooManyEdges.
func (g *Graph) Decompress() *Graph {
	if g.outC == nil {
		return g
	}
	g = g.in()
	outOff, outAdj := decompressAdj(g.outC)
	ng := &Graph{n: g.n, base: g.base, outOff: outOff, outAdj: outAdj, outW: g.outW}
	if g.inC != nil {
		ng.inOff, ng.inAdj = decompressAdj(g.inC)
	}
	return ng.sealed()
}

func decompressAdj(c *compressedAdj) ([]uint32, []VertexID) {
	mustFit(c.m)
	off := make([]uint32, c.n+1)
	for i, d := range c.deg {
		off[i+1] = off[i] + d
	}
	adj := make([]VertexID, c.m)
	var pos uint64
	for i := range c.deg {
		pos = c.decode(pos, 0, adj[off[i]:off[i+1]])
	}
	return off, adj
}

// NeighborBuf is a caller-owned decode buffer for the *With accessors;
// the zero value is ready to use. It belongs to one goroutine (each
// engine worker keeps its own), and a slice it returns is valid until the
// next call with the same buffer. It may serve any mix of graphs and
// directions: the cursor is keyed on the adjacency it last decoded. On a
// flat graph the buffer is never touched (the shared CSR slice is
// returned directly), so the flat path stays zero-copy and
// allocation-free.
type NeighborBuf struct {
	buf []VertexID
	// The cursor: blocks are contiguous, so the byte after vertex
	// next-1's last varint is vertex next's first, across block
	// boundaries too. A call for exactly next on the same adjacency
	// continues from pos/edge with no skip; one for a later vertex of
	// next's block skips only the varints in between.
	adj       *compressedAdj
	next      int
	pos, edge uint64
}

// neighbors fills nb's buffer with vertex i's neighbours on c and returns
// them with the edge index of the first. A request behind the cursor or
// in another block starts from i's block (locate); one ahead of it in the
// same block skips forward from it, which is never longer, so a sorted
// walk with gaps costs one pass per block. The block test goes first: under
// random access it is the one the branch predictor gets right.
func (nb *NeighborBuf) neighbors(c *compressedAdj, i int) ([]VertexID, uint64) {
	pos, edge := nb.pos, nb.edge
	switch {
	case nb.adj != c || i/CompressedBlockSize != nb.next/CompressedBlockSize || i < nb.next:
		pos, edge = c.locate(i)
	case i > nb.next:
		var k uint64
		for _, d := range c.deg[nb.next:i] {
			k += uint64(d)
		}
		pos, edge = skipVarints(c.data, pos, k), edge+k
	}
	d := int(c.deg[i])
	nb.buf = slices.Grow(nb.buf[:0], d)[:d]
	nb.adj, nb.next, nb.pos, nb.edge = c, i+1, c.decode(pos, 0, nb.buf), edge+uint64(d)
	return nb.buf, edge
}

// OutNeighborsWith returns vertex i's out-neighbours: the shared CSR
// slice on a flat graph (do not modify; the read inlines), or nb's buffer
// filled by decoding on a compressed graph (valid until the next call
// with the same nb). The rest, OutNeighbors' panics too, is a call.
func (g *Graph) OutNeighborsWith(nb *NeighborBuf, i int) []VertexID {
	if g.flatOut {
		return g.outAdj[g.outOff[i]:g.outOff[i+1]]
	}
	return g.outNeighborsSlow(nb, i)
}

func (g *Graph) outNeighborsSlow(nb *NeighborBuf, i int) []VertexID {
	if g.outC == nil {
		return g.OutNeighbors(i)
	}
	ns, _ := nb.neighbors(g.outC, i)
	return ns
}

// InNeighborsWith is OutNeighborsWith for the in-direction. It panics
// with ErrNoInEdges if in-edges were not built. The pull collect calls it
// per receiver; an in side derived on demand is read through a call.
func (g *Graph) InNeighborsWith(nb *NeighborBuf, i int) []VertexID {
	if g.flatIn {
		return g.inAdj[g.inOff[i]:g.inOff[i+1]]
	}
	return g.inNeighborsSlow(nb, i)
}

func (g *Graph) inNeighborsSlow(nb *NeighborBuf, i int) []VertexID {
	if g = g.in(); g.inC != nil {
		ns, _ := nb.neighbors(g.inC, i)
		return ns
	}
	return g.InNeighbors(i)
}

// ForEachOutNeighbor streams vertex i's out-neighbours without a
// buffer, on either backend.
func (g *Graph) ForEachOutNeighbor(i int, fn func(VertexID)) {
	if g.outC != nil {
		g.outC.visit(i, fn)
		return
	}
	for _, v := range g.OutNeighbors(i) {
		fn(v)
	}
}

// ForEachInNeighbor streams vertex i's in-neighbours. It panics with
// ErrNoInEdges if in-edges were not built.
func (g *Graph) ForEachInNeighbor(i int, fn func(VertexID)) {
	g = g.in()
	if g.inC != nil {
		g.inC.visit(i, fn)
		return
	}
	for _, v := range g.InNeighbors(i) {
		fn(v)
	}
}

// OutEdgesWeightedWith returns vertex i's out-neighbours and matching
// weights on either backend (weights are always a shared slice — they
// stay flat under compression). It panics with ErrNoWeights on
// unweighted graphs.
func (g *Graph) OutEdgesWeightedWith(nb *NeighborBuf, i int) ([]VertexID, []uint32) {
	if g.outC == nil {
		return g.OutEdgesWeighted(i)
	}
	if g.outW == nil {
		panic(ErrNoWeights)
	}
	ns, lo := nb.neighbors(g.outC, i)
	return ns, g.outW[lo : lo+uint64(len(ns))]
}

// ForEachOutEdgeWeighted streams vertex i's out-neighbours with their
// weights, on either backend. It panics with ErrNoWeights on unweighted
// graphs.
func (g *Graph) ForEachOutEdgeWeighted(i int, fn func(VertexID, uint32)) {
	if g.outW == nil {
		panic(ErrNoWeights)
	}
	if g.outC != nil {
		pos, j := g.outC.locate(i)
		g.outC.visitFrom(pos, g.outC.deg[i], func(v VertexID) {
			fn(v, g.outW[j])
			j++
		})
		return
	}
	lo, hi := g.outOff[i], g.outOff[i+1]
	for e := lo; e < hi; e++ {
		fn(g.outAdj[e], g.outW[e])
	}
}

// CompressedParts exposes one direction's block arrays for
// serialisation (the IPG3 writer) and admission (the IPG3 reader, the
// mmap loader). The slices are shared with the graph; treat them as
// read-only.
type CompressedParts struct {
	Deg       []uint32
	BlockOff  []uint64
	BlockEdge []uint64
	Data      []byte
}

// OutCompressedParts returns the out-direction's block arrays, or
// ok=false on a flat graph.
func (g *Graph) OutCompressedParts() (p CompressedParts, ok bool) {
	if g.outC == nil {
		return CompressedParts{}, false
	}
	return CompressedParts{Deg: g.outC.deg, BlockOff: g.outC.blockOff, BlockEdge: g.outC.blockEdge, Data: g.outC.data}, true
}

// NewCompressedOut builds a compressed graph directly from block arrays
// (the IPG3 reader and mmap loader path), fully validating them —
// hostile inputs error, never panic. The block table is checked on the
// calling goroutine; the decode sweep of a stream of at least two
// 64 KiB floors is cut into equal-byte spans swept on up to GOMAXPROCS
// goroutines, all joined before it returns, and a rejected input gets
// the serial sweep's error. weights may be nil; when present its length
// must equal the edge count. The slices are retained, not copied (the
// mmap loader aliases the file).
func NewCompressedOut(base VertexID, n int, p CompressedParts, weights []uint32) (*Graph, error) {
	c, err := newCompressedAdj(n, p.Deg, p.BlockOff, p.BlockEdge, p.Data)
	if err != nil {
		return nil, err
	}
	if weights != nil && uint64(len(weights)) != c.m {
		return nil, fmt.Errorf("graph: weight array length %d, want edge count %d", len(weights), c.m)
	}
	return &Graph{n: n, base: base, outC: c, outW: weights}, nil
}

// FromCSR builds a flat graph directly from CSR arrays, validating
// them (the mmap loader path for IPG1/IPG2 — the adjacency aliases the
// mapped file); more than 2^32 − 1 edges is ErrTooManyEdges. weights may
// be nil.
func FromCSR(base VertexID, outOff []uint32, outAdj []VertexID, weights []uint32) (*Graph, error) {
	n := len(outOff) - 1
	if n < 0 {
		return nil, errors.New("graph: empty offset array")
	}
	if err := EdgesFit(uint64(len(outAdj))); err != nil {
		return nil, err
	}
	if err := validateCSR("out", n, outOff, outAdj); err != nil {
		return nil, err
	}
	if weights != nil && len(weights) != len(outAdj) {
		return nil, fmt.Errorf("graph: weight array length %d, want edge count %d", len(weights), len(outAdj))
	}
	return (&Graph{n: n, base: base, outOff: outOff, outAdj: outAdj, outW: weights}).sealed(), nil
}

// WeightData returns the shared per-edge weight array in CSR edge
// order, or nil on unweighted graphs; callers must not modify it. It is
// the serialisation-side pair of OutCompressedParts.
func (g *Graph) WeightData() []uint32 { return g.outW }
