package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ipregel/internal/graph"
)

// The fuzz targets pin the parsers' error contract: arbitrary input must
// produce (nil, error) or a graph that passes Validate — never a panic.
// The parsers guard against hostile headers (a DIMACS problem line or a
// binary header declaring billions of vertices must not allocate first
// and ask questions later), and the fuzzers are how those guards earn trust.
// Run at depth with `go test -fuzz FuzzReadEdgeList ./internal/graphio/`;
// in normal `go test` runs only the seed corpus executes.

// fuzzOptions is the option matrix each input is parsed under; the
// invalid combination (KeepWeights+Dedup) is included deliberately — it
// must fail cleanly too. Every entry sets MaxVertices: without the cap a
// single header or identifier can legally demand gigabytes (the CSR
// builder sizes arrays from declared counts and maximum ids), which is
// exactly the attack MaxVertices exists to stop — and what would OOM the
// fuzzer.
var fuzzOptions = []Options{
	{MaxVertices: 1 << 16},
	{Undirected: true, BuildInEdges: true, MaxVertices: 1 << 16},
	{Dedup: true, MaxVertices: 1 << 16},
	{KeepWeights: true, MaxVertices: 1 << 16},
	{KeepWeights: true, Dedup: true, MaxVertices: 1 << 16},
}

func fuzzRead(t *testing.T, format Format, data []byte) {
	for _, opts := range fuzzOptions {
		g, err := Read(bytes.NewReader(data), format, opts)
		if err != nil {
			if g != nil {
				t.Fatalf("%v/%+v: non-nil graph alongside error %v", format, opts, err)
			}
			continue
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%v/%+v: parser accepted input but built a corrupt graph: %v", format, opts, err)
		}
	}
}

// TestMaxVerticesGuards pins the header/identifier bombs the fuzzers
// would otherwise find by exhausting memory: each hostile input must be
// rejected by the MaxVertices cap before any size is trusted.
func TestMaxVerticesGuards(t *testing.T) {
	capped := Options{MaxVertices: 1000}
	cases := []struct {
		name   string
		format Format
		data   string
	}{
		{"edge list huge id", FormatEdgeList, "4294967295 0\n"},
		{"KONECT huge id", FormatKONECT, "% asym\n1 4000000000\n"},
		{"DIMACS huge n", FormatDIMACS, "p sp 2000000000 1\na 1 2 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Read(bytes.NewReader([]byte(tc.data)), tc.format, capped)
			if err == nil {
				t.Fatalf("parser accepted input implying %d+ vertices despite MaxVertices=1000 (n=%d)", 2000000000, g.N())
			}
		})
	}
}

// hostileIPG3 is an 80-byte IPG3 stream, everything before the data
// section of a one-vertex graph with a consistent block table, whose
// header declares dataLen = 2³² and m = 2³² − 1, the most edges a
// direction holds, and which then ends.
func hostileIPG3() []byte {
	const m = 1<<32 - 1
	l := computeIPG3Layout(1, m, 1<<32, false)
	raw := make([]byte, l.dataOff)
	copy(raw, binaryMagic3[:])
	binary.LittleEndian.PutUint32(raw[12:], graph.CompressedBlockSize)
	binary.LittleEndian.PutUint64(raw[16:], 1)
	binary.LittleEndian.PutUint64(raw[24:], m)
	binary.LittleEndian.PutUint64(raw[32:], 1<<32)
	binary.LittleEndian.PutUint64(raw[l.blockOffOff+8:], 1<<32)
	binary.LittleEndian.PutUint64(raw[l.blockEdgeOff+8:], m)
	return raw
}

// overCapHeader is the header alone of a binary file of the given magic
// declaring two vertices and 2³² edges, one more than an adjacency
// direction holds (IPG3: and a 2³²-byte stream).
func overCapHeader(magic [4]byte) []byte {
	raw := append([]byte(nil), magic[:]...)
	if magic == binaryMagic3 {
		raw = binary.LittleEndian.AppendUint32(append(raw, make([]byte, 8)...), graph.CompressedBlockSize)
		raw = binary.LittleEndian.AppendUint64(raw, 2)
		raw = binary.LittleEndian.AppendUint64(raw, 1<<32)
		return binary.LittleEndian.AppendUint64(raw, 1<<32)
	}
	raw = binary.LittleEndian.AppendUint64(append(raw, make([]byte, 4)...), 2)
	return binary.LittleEndian.AppendUint64(raw, 1<<32)
}

// TestBinaryRefusesOverCapEdges: a header declaring more edges than one
// adjacency direction's 4-byte offsets hold is graph.ErrTooManyEdges from
// both loaders, before any section is read — so the header alone reaches
// the real cap.
func TestBinaryRefusesOverCapEdges(t *testing.T) {
	for _, magic := range [][4]byte{binaryMagic, binaryMagicW, binaryMagic3} {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, overCapHeader(magic), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path, Options{}); !errors.Is(err, graph.ErrTooManyEdges) {
			t.Errorf("%s ReadFile: %v, want ErrTooManyEdges", magic, err)
		}
		m, err := OpenMapped(path, Options{})
		if err == nil {
			m.Close()
		}
		if !errors.Is(err, graph.ErrTooManyEdges) {
			t.Errorf("%s OpenMapped: %v, want ErrTooManyEdges", magic, err)
		}
	}
}

// TestBinaryHostileHeaderAllocation: MaxVertices caps n, and nothing but
// the input caps the data section, so a stream that declares 4 GiB of
// data and holds none must fail having allocated about what it holds.
func TestBinaryHostileHeaderAllocation(t *testing.T) {
	raw := hostileIPG3()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Read(bytes.NewReader(raw), FormatBinary, Options{MaxVertices: 1 << 16})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("accepted a %d-byte stream declaring 4 GiB of data (m=%d)", len(raw), g.M())
	}
	if errors.Is(err, graph.ErrTooManyEdges) {
		t.Fatalf("refused by the edge cap, not by the missing data: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("allocated %d bytes before rejecting a %d-byte stream: %v", alloc, len(raw), err)
	}
}

// TestDIMACSRejectsHostileHeaders covers guards that hold even without a
// MaxVertices cap: negative counts and identifiers beyond 32 bits must
// fail instead of wrapping.
func TestDIMACSRejectsHostileHeaders(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("p sp -5 0\n")), FormatDIMACS, Options{}); err == nil {
		t.Fatal("negative vertex count accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("p sp 3 1\na 4294967297 2 1\n")), FormatDIMACS, Options{}); err == nil {
		t.Fatal("64-bit arc identifier silently truncated instead of rejected")
	}
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("# comment\n0 1\n1 2\n2 0\n"))
	f.Add([]byte("0 1 7\n1 0 3\n"))
	f.Add([]byte("% other comment style\n4294967295 0\n"))
	f.Add([]byte("0\n"))
	f.Add([]byte("a b\n"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzRead(t, FormatEdgeList, data) })
}

func FuzzReadKONECT(f *testing.F) {
	f.Add([]byte("% sym\n1 2\n2 3\n"))
	f.Add([]byte("% asym\n1 2 1 1234567890\n"))
	f.Add([]byte("% bip\n1 2\n"))
	f.Add([]byte("1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzRead(t, FormatKONECT, data) })
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add([]byte("c comment\np sp 3 2\na 1 2 10\na 2 3 20\n"))
	f.Add([]byte("p sp 0 0\n"))
	f.Add([]byte("p sp 99999999999999999999 1\na 1 1 1\n"))
	f.Add([]byte("a 1 2 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzRead(t, FormatDIMACS, data) })
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	var b graph.Builder
	b.BuildInEdges()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	if err := WriteBinary(&buf, b.MustBuild()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte("IPGR"))
	f.Add(overCapHeader(binaryMagic))

	// IPG3 (block-compressed) seeds: valid unweighted, valid weighted,
	// truncated mid-stream, and one with a corrupted varint byte — the
	// reader must reject all damage with an error, never a panic.
	var b3 graph.Builder
	b3.Compress()
	for i := 0; i < 100; i++ {
		b3.AddEdge(graph.VertexID(i%10), graph.VertexID((i*7)%10))
	}
	var buf3 bytes.Buffer
	if err := WriteBinary(&buf3, b3.MustBuild()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf3.Bytes())
	f.Add(buf3.Bytes()[:len(buf3.Bytes())-3])
	corrupt := append([]byte(nil), buf3.Bytes()...)
	corrupt[len(corrupt)-1] ^= 0x80
	f.Add(corrupt)
	var wb graph.WeightedBuilder
	wb.AddEdge(1, 2, 10)
	wb.AddEdge(2, 3, 20)
	wg, err := wb.MustBuild().Compress()
	if err != nil {
		f.Fatal(err)
	}
	var bufW bytes.Buffer
	if err := WriteBinary(&bufW, wg); err != nil {
		f.Fatal(err)
	}
	f.Add(bufW.Bytes())
	// Hostile IPG3 headers: huge n (must die on MaxVertices before
	// allocating), dataLen lying about the stream size, and a 4 GiB data
	// section that is not there.
	f.Add(hostileIPG3())
	f.Add([]byte("IPG3\x00\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00" +
		"\xff\xff\xff\xff\xff\xff\xff\x0f" + "\x10\x00\x00\x00\x00\x00\x00\x00" + "\x10\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("IPG3\x00\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00" +
		"\x02\x00\x00\x00\x00\x00\x00\x00" + "\x02\x00\x00\x00\x00\x00\x00\x00" + "\xff\xff\xff\xff\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) { fuzzRead(t, FormatBinary, data) })
}
