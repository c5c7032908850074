package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// lowerCheckFloor sets checkSpanFloor for the rest of the test, so that
// small graphs take check's parallel sweep wherever GOMAXPROCS > 1.
func lowerCheckFloor(t *testing.T, floor uint64) {
	old := checkSpanFloor
	checkSpanFloor = floor
	t.Cleanup(func() { checkSpanFloor = old })
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// skewedAdj is a compressed adjacency of 64 blocks whose sources are
// drawn towards low ids, as RMAT's are: the first blocks hold most of the
// stream, so equal-byte spans and equal-block spans differ.
func skewedAdj(t *testing.T) *compressedAdj {
	t.Helper()
	const n = 64 * CompressedBlockSize
	rng := rand.New(rand.NewSource(5))
	var b Builder
	b.ForceN = n
	b.SetBase(0)
	for i := 0; i < 20*n; i++ {
		b.AddEdge(VertexID(rng.Intn(rng.Intn(n)+1)), VertexID(rng.Intn(n)))
	}
	g := b.MustBuild()
	c := compressCSR(g.n, g.outOff, g.outAdj)
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// clone copies the arrays a test damages.
func (c *compressedAdj) clone() *compressedAdj {
	d := *c
	d.deg, d.data = slices.Clone(c.deg), slices.Clone(c.data)
	return &d
}

// blockAt returns the block whose byte span holds stream byte pos.
func (c *compressedAdj) blockAt(pos uint64) int {
	b, found := slices.BinarySearch(c.blockOff, pos)
	if !found {
		b--
	}
	for b+1 < len(c.blockOff) && c.blockOff[b+1] == pos {
		b++ // skip empty blocks that start where pos does
	}
	return b
}

// TestCheckSpansCorruptBlock: a damaged block in the first, a middle or
// the last of four equal-byte spans — a degree that no longer sums to the
// block's edge prefix, or a block's last varint left unterminated — and two
// damaged blocks in different spans, each give exactly the serial sweep's
// error, which names the first damaged block.
func TestCheckSpansCorruptBlock(t *testing.T) {
	const parts = 4
	c := skewedAdj(t)
	total := uint64(len(c.data))
	cut := c.spanCuts(parts)
	span := func(b int) int {
		p := 0
		for b >= cut[p+1] {
			p++
		}
		return p
	}
	damage := map[string]func(*compressedAdj, int){
		"degree": func(d *compressedAdj, b int) { d.deg[b*CompressedBlockSize]++ },
		"stream": func(d *compressedAdj, b int) { d.data[d.blockOff[b+1]-1] |= 0x80 },
	}
	for _, tc := range []struct {
		name  string
		at    []uint64 // stream bytes whose blocks are damaged
		spans []int    // the spans those blocks must fall in
	}{
		{"first span", []uint64{total / 20}, []int{0}},
		{"middle span", []uint64{total * 9 / 20}, []int{1}},
		{"last span", []uint64{total * 19 / 20}, []int{3}},
		{"two spans", []uint64{total * 7 / 20, total * 17 / 20}, []int{1, 3}},
	} {
		for kind, hurt := range damage {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				d := c.clone()
				var blocks []int
				for i, pos := range tc.at {
					b := d.blockAt(pos)
					if got := span(b); got != tc.spans[i] {
						t.Fatalf("block %d is in span %d, want %d", b, got, tc.spans[i])
					}
					hurt(d, b)
					blocks = append(blocks, b)
				}
				serial := d.checkSpans(1)
				if serial == nil {
					t.Fatalf("the serial sweep admitted damaged blocks %v", blocks)
				}
				if want := fmt.Sprintf("block %d ", blocks[0]); !strings.Contains(serial.Error(), want) {
					t.Fatalf("serial sweep: %v, want an error naming %q", serial, want)
				}
				if got := d.checkSpans(parts); got == nil || got.Error() != serial.Error() {
					t.Fatalf("%d spans: %v, serial sweep: %v", parts, got, serial)
				}
			})
		}
	}
}

// TestSpanCutsEqualBytes: on a stream whose first blocks hold most of
// its bytes, every span of spanCuts holds at most its share of the
// stream plus one block, where an equal-block cut would give the first
// span well over half.
func TestSpanCutsEqualBytes(t *testing.T) {
	c := skewedAdj(t)
	nb := len(c.blockOff) - 1
	var largest uint64
	for b := 0; b < nb; b++ {
		largest = max(largest, c.blockOff[b+1]-c.blockOff[b])
	}
	total := uint64(len(c.data))
	for parts := 2; parts <= 5; parts++ {
		cut := c.spanCuts(parts)
		if cut[0] != 0 || cut[parts] != nb {
			t.Fatalf("%d spans: cuts %v do not cover blocks [0, %d)", parts, cut, nb)
		}
		for p := 0; p < parts; p++ {
			if cut[p] > cut[p+1] {
				t.Fatalf("%d spans: cuts %v not monotone", parts, cut)
			}
			if bytes := c.blockOff[cut[p+1]] - c.blockOff[cut[p]]; bytes > total/uint64(parts)+largest {
				t.Fatalf("%d spans: span %d holds %d of %d stream bytes (largest block %d)", parts, p, bytes, total, largest)
			}
		}
	}
	if first := c.blockOff[nb/2]; first <= total/2 {
		t.Fatalf("the test graph is not skewed: the first half of its blocks hold %d of %d stream bytes", first, total)
	}
}

// TestCheckParts: below two floors of stream bytes, and at any size at
// GOMAXPROCS=1, the sweep is one span, which starts no goroutine; above,
// one span per floor up to GOMAXPROCS.
func TestCheckParts(t *testing.T) {
	floor := checkSpanFloor
	setProcs(t, 1)
	for _, n := range []uint64{0, floor, 1 << 40} {
		if got := checkParts(n); got != 1 {
			t.Fatalf("GOMAXPROCS=1: checkParts(%d) = %d, want 1", n, got)
		}
	}
	setProcs(t, 4)
	for _, tc := range []struct {
		n    uint64
		want int
	}{{0, 1}, {2*floor - 1, 1}, {2 * floor, 2}, {3 * floor, 3}, {100 * floor, 4}} {
		if got := checkParts(tc.n); got != tc.want {
			t.Fatalf("GOMAXPROCS=4: checkParts(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestCheckLeavesNoGoroutine: the goroutine count after check, on an
// admitted and on a rejected adjacency, is what it was before.
func TestCheckLeavesNoGoroutine(t *testing.T) {
	lowerCheckFloor(t, 1)
	setProcs(t, 4)
	good := skewedAdj(t)
	bad := good.clone()
	bad.data[len(bad.data)-1] |= 0x80 // the last varint never ends
	before := runtime.NumGoroutine()
	for name, tc := range map[string]struct {
		c    *compressedAdj
		fail bool
	}{"admitted": {good, false}, "rejected": {bad, true}} {
		if err := tc.c.check(); (err != nil) != tc.fail {
			t.Fatalf("%s: check = %v", name, err)
		}
		// A span's goroutine exits just after it signals the join, so
		// give it a moment; one left blocked never exits.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after check, %d before", name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestCompressedValidateSpans: with the floor lowered, Validate on every
// compressed test graph takes the parallel sweep (at GOMAXPROCS > 1) and
// admits it, and a damaged copy is refused with the serial sweep's error.
func TestCompressedValidateSpans(t *testing.T) {
	serial := map[string]string{}
	damaged := map[string]*Graph{}
	for name, g := range testGraphs(t) {
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		if cg.outC == nil || len(cg.outC.data) == 0 {
			continue
		}
		d := *cg
		d.outC = cg.outC.clone()
		d.outC.data[len(d.outC.data)-1] |= 0x80 // the last varint never ends
		damaged[name] = &d
		serial[name] = fmt.Sprint(d.Validate())
	}
	lowerCheckFloor(t, 1)
	for name, g := range testGraphs(t) {
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		if err := cg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := damaged[name]; d != nil {
			if got := fmt.Sprint(d.Validate()); got != serial[name] || got == "<nil>" {
				t.Fatalf("%s damaged: %s, serial sweep: %s", name, got, serial[name])
			}
		}
	}
}
