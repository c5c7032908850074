package graph

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// referenceAdmit is newCompressedAdj as it validated before check's sweep
// took short varints inline: the same shape and table tests, and a decode
// sweep that sends every varint through readUvarint against the block's
// span. It is the oracle the differential tests hold check to — what it
// accepts and rejects is the definition of "exactly as strict".
func referenceAdmit(n int, deg []uint32, blockOff, blockEdge []uint64, data []byte) error {
	nb := (n + CompressedBlockSize - 1) / CompressedBlockSize
	if n < 0 || len(deg) != n || len(blockOff) != nb+1 || len(blockEdge) != nb+1 {
		return fmt.Errorf("shape")
	}
	if blockOff[0] != 0 || blockEdge[0] != 0 || blockOff[nb] != uint64(len(data)) {
		return fmt.Errorf("table ends")
	}
	for b := 0; b < nb; b++ {
		if blockOff[b+1] < blockOff[b] || blockOff[b+1] > uint64(len(data)) || blockEdge[b+1] < blockEdge[b] {
			return fmt.Errorf("table not monotone at %d", b)
		}
	}
	for b := 0; b < nb; b++ {
		end := min((b+1)*CompressedBlockSize, n)
		var sum uint64
		for i := b * CompressedBlockSize; i < end; i++ {
			sum += uint64(deg[i])
		}
		if blockEdge[b+1]-blockEdge[b] != sum {
			return fmt.Errorf("block %d edge prefix", b)
		}
		pos := blockOff[b]
		for i := b * CompressedBlockSize; i < end; i++ {
			prev := int64(0)
			for k := deg[i]; k > 0; k-- {
				u, np, err := readUvarint(data[:blockOff[b+1]], pos)
				if err != nil {
					return fmt.Errorf("block %d vertex %d: %w", b, i, err)
				}
				pos = np
				prev += unzigzag(u)
				if prev < 0 || prev >= int64(n) {
					return fmt.Errorf("block %d vertex %d: neighbour %d out of range", b, i, prev)
				}
			}
		}
		if pos != blockOff[b+1] {
			return fmt.Errorf("block %d span", b)
		}
	}
	return nil
}

// requireCheckersAgree admits one set of arrays through newCompressedAdj
// and through the oracle and fails the test unless both accept or both
// reject. It reports which.
func requireCheckersAgree(t *testing.T, n int, deg []uint32, blockOff, blockEdge []uint64, data []byte) (accepted bool) {
	_, err := newCompressedAdj(n, deg, blockOff, blockEdge, data)
	ref := referenceAdmit(n, deg, blockOff, blockEdge, data)
	if (err == nil) != (ref == nil) {
		t.Fatalf("validators disagree: check says %v, the reference sweep says %v\nn=%d deg=%v blockOff=%v blockEdge=%v data=%x",
			err, ref, n, deg, blockOff, blockEdge, data)
	}
	requireSpansAgree(t, n, deg, blockOff, blockEdge, data, err)
	return err == nil
}

// spanCounts are the span counts requireSpansAgree cuts a block sweep
// into: an even and an odd count. Most test streams have fewer blocks
// than that, so some spans are empty.
var spanCounts = []int{2, 3}

// requireSpansAgree fails the test unless the block sweep cut into each
// of spanCounts returns exactly serial, newCompressedAdj's error for the
// same arrays (the serial sweep's, at the default floor on these small
// streams): the same error string, or nil. Arrays that fail the shape or
// table checks never reach the sweep, so there is nothing to compare for
// them.
func requireSpansAgree(t *testing.T, n int, deg []uint32, blockOff, blockEdge []uint64, data []byte, serial error) {
	t.Helper()
	nb := (n + CompressedBlockSize - 1) / CompressedBlockSize
	if n < 0 || len(deg) != n || len(blockOff) != nb+1 || len(blockEdge) != nb+1 {
		return
	}
	c := &compressedAdj{n: n, m: blockEdge[nb], deg: deg, blockOff: blockOff, blockEdge: blockEdge, data: data}
	if c.checkTable() != nil {
		return
	}
	for _, parts := range spanCounts {
		if got := c.checkSpans(parts); fmt.Sprint(got) != fmt.Sprint(serial) {
			t.Fatalf("the sweep cut into %d spans says %s, the serial sweep %s", parts, got, serial)
		}
	}
}

// adjSections is one adjacency's four arrays as the little-endian bytes an
// IPG3 file stores, so a test can damage any single byte of any of them.
type adjSections struct {
	n                              int
	deg, blockOff, blockEdge, data []byte
}

func sectionsOf(c *compressedAdj) adjSections {
	s := adjSections{n: c.n, data: c.data}
	for _, d := range c.deg {
		s.deg = binary.LittleEndian.AppendUint32(s.deg, d)
	}
	for _, v := range c.blockOff {
		s.blockOff = binary.LittleEndian.AppendUint64(s.blockOff, v)
	}
	for _, v := range c.blockEdge {
		s.blockEdge = binary.LittleEndian.AppendUint64(s.blockEdge, v)
	}
	return s
}

// ipg3Sections cuts the four sections out of an IPG3 file (layout in
// internal/graphio/compressed.go; this package cannot import its reader).
func ipg3Sections(t *testing.T, path string) adjSections {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 40 || string(raw[:4]) != "IPG3" {
		t.Fatalf("%s is not an IPG3 file", path)
	}
	n := binary.LittleEndian.Uint64(raw[16:])
	dataLen := binary.LittleEndian.Uint64(raw[32:])
	tbl := ((n+CompressedBlockSize-1)/CompressedBlockSize + 1) * 8
	degEnd := 40 + n*4
	boOff := degEnd + (8-degEnd%8)%8
	dataOff := boOff + 2*tbl
	if uint64(len(raw)) < dataOff+dataLen {
		t.Fatalf("%s: %d bytes, header implies at least %d", path, len(raw), dataOff+dataLen)
	}
	return adjSections{
		n:         int(n),
		deg:       raw[40:degEnd],
		blockOff:  raw[boOff : boOff+tbl],
		blockEdge: raw[boOff+tbl : dataOff],
		data:      raw[dataOff : dataOff+dataLen],
	}
}

func (s adjSections) admit(t *testing.T) bool {
	deg := make([]uint32, len(s.deg)/4)
	for i := range deg {
		deg[i] = binary.LittleEndian.Uint32(s.deg[4*i:])
	}
	u64s := func(b []byte) []uint64 {
		out := make([]uint64, len(b)/8)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return out
	}
	return requireCheckersAgree(t, s.n, deg, u64s(s.blockOff), u64s(s.blockEdge), s.data)
}

// overlongSections is a two-block adjacency whose varints are padded to
// every length from one to ten bytes in turn (readUvarint admits
// non-canonical encodings, so it is valid): the small graphs above only
// hold one-byte deltas, and a single damaged byte there never builds the
// three-byte-and-longer shapes the inlined sweep has to hand over
// correctly.
func overlongSections() adjSections {
	const n = CompressedBlockSize + 6
	c := &compressedAdj{n: n, deg: make([]uint32, n), blockOff: []uint64{0}, blockEdge: []uint64{0}}
	for i := 0; i < n; i++ {
		if i > 0 && i%CompressedBlockSize == 0 {
			c.blockOff, c.blockEdge = append(c.blockOff, uint64(len(c.data))), append(c.blockEdge, c.m)
		}
		c.deg[i] = uint32(i % 3)
		prev := int64(0)
		for j := 0; j < i%3; j++ {
			v := int64((i*7 + j*13) % n)
			x, length := zigzag(v-prev), (i+j)%10+1
			for ; length > 1; length-- {
				c.data = append(c.data, byte(x)|0x80)
				x >>= 7
			}
			c.data = append(c.data, byte(x))
			prev = v
			c.m++
		}
	}
	c.blockOff, c.blockEdge = append(c.blockOff, uint64(len(c.data))), append(c.blockEdge, c.m)
	return sectionsOf(c)
}

// TestCompressedCheckMatchesReference is the proof that the faster
// validation sweep is exactly as strict as the one it replaced: every
// single-byte mutation (each byte to each of its 255 other values) of
// each of the four sections of the IPG3 goldens, of the IPG3 seed graphs
// of graphio's FuzzReadBinary and of an adjacency of padded varints is
// admitted or rejected by check and by the reference sweep alike, and
// the block sweep cut into spans returns the serial sweep's exact error.
// FuzzBlockDecode asserts the same on its seeds and on whatever the
// fuzzer derives from them.
func TestCompressedCheckMatchesReference(t *testing.T) {
	var seed Builder // FuzzReadBinary's valid unweighted IPG3 seed
	for i := 0; i < 100; i++ {
		seed.AddEdge(VertexID(i%10), VertexID((i*7)%10))
	}
	var wseed WeightedBuilder // and its weighted one
	wseed.AddEdge(1, 2, 10)
	wseed.AddEdge(2, 3, 20)
	golden := filepath.Join("..", "graphio", "testdata")
	g, wg := seed.MustBuild(), wseed.MustBuild()
	for name, s := range map[string]adjSections{
		"ipg3_golden":          ipg3Sections(t, filepath.Join(golden, "ipg3_golden.bin")),
		"ipg3_weighted_golden": ipg3Sections(t, filepath.Join(golden, "ipg3_weighted_golden.bin")),
		"fuzz seed":            sectionsOf(compressCSR(g.n, g.outOff, g.outAdj)),
		"weighted fuzz seed":   sectionsOf(compressCSR(wg.n, wg.outOff, wg.outAdj)),
		"overlong varints":     overlongSections(),
	} {
		t.Run(name, func(t *testing.T) {
			if !s.admit(t) {
				t.Fatal("the undamaged sections were rejected")
			}
			accepted, rejected := 0, 0
			for _, section := range [][]byte{s.deg, s.blockOff, s.blockEdge, s.data} {
				for i, orig := range section {
					for v := 0; v < 256; v++ {
						if byte(v) == orig {
							continue
						}
						section[i] = byte(v)
						if s.admit(t) {
							accepted++
						} else {
							rejected++
						}
					}
					section[i] = orig
				}
			}
			// A stream byte changed to another in-range delta is still a
			// valid graph; a damaged table never is.
			if accepted == 0 || rejected == 0 {
				t.Fatalf("%d mutations accepted, %d rejected: the sweep is not exercising both outcomes", accepted, rejected)
			}
		})
	}
}
