// Package graphio reads and writes graphs in the formats the paper's
// datasets ship in — KONECT TSV (Wikipedia, Twitter, Friendster) and the
// DIMACS challenge-9 `.gr` format (USA road network) — plus a plain
// whitespace edge list and a compact binary format for fast reload.
//
// All readers stream line-by-line through bufio and tolerate comments, so
// real downloads from KONECT/DIMACS would load unmodified; the test suite
// exercises them on synthetic files with the same syntax.
package graphio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ipregel/internal/graph"
)

// Format identifies an on-disk graph encoding.
type Format int

const (
	// FormatEdgeList is whitespace-separated "src dst" pairs, '#' or '%'
	// comments allowed.
	FormatEdgeList Format = iota
	// FormatKONECT is the KONECT TSV format: a "% sym|asym ..." header
	// followed by "src dst [weight [timestamp]]" lines.
	FormatKONECT
	// FormatDIMACS is the DIMACS challenge-9 .gr format: "c" comments,
	// one "p sp N M" problem line, and "a src dst weight" arc lines.
	FormatDIMACS
	// FormatBinary is this package's compact binary encoding (binary.go).
	FormatBinary
)

// String returns the canonical name of the format.
func (f Format) String() string {
	switch f {
	case FormatEdgeList:
		return "edgelist"
	case FormatKONECT:
		return "konect"
	case FormatDIMACS:
		return "dimacs"
	case FormatBinary:
		return "binary"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// DetectFormat guesses the format from a file extension; a trailing .gz
// is stripped first (the paper's USA-road download ships as
// USA-road-d.USA.gr.gz).
func DetectFormat(path string) Format {
	path = strings.TrimSuffix(path, ".gz")
	switch strings.ToLower(filepath.Ext(path)) {
	case ".gr":
		return FormatDIMACS
	case ".tsv", ".konect":
		return FormatKONECT
	case ".bin":
		return FormatBinary
	default:
		return FormatEdgeList
	}
}

// Options controls graph construction during reading.
type Options struct {
	// Undirected inserts the reverse of every edge (KONECT "sym" headers
	// set this automatically).
	Undirected bool
	// BuildInEdges makes the loaded graph serve in-side reads. The text
	// readers build the in-adjacency at load time; the binary loaders
	// (ReadBinary, OpenMapped), which start from a finished
	// out-adjacency, leave it to the first in-side read
	// (graph.WithInEdgesOnDemand).
	BuildInEdges bool
	// Dedup drops duplicate edges (implies sorted adjacency).
	// Undirected and Dedup apply to the text formats only: a binary file
	// holds a finished adjacency, and its loaders refuse them.
	Dedup bool
	// KeepWeights retains per-edge weights (DIMACS arc weights, or the
	// third column of an edge list); edges without a weight column get
	// weight 1. Incompatible with Undirected and Dedup.
	KeepWeights bool
	// MaxVertices rejects inputs that declare or reference more than this
	// many vertices (0 = no limit). The CSR builder sizes its arrays from
	// header counts and from the largest identifier seen, so a few hostile
	// header bytes (a DIMACS problem line, a binary n field) or one
	// absurd identifier can demand multi-gigabyte
	// allocations; with the cap set, parsers check those values before
	// sizing anything from them and return an error instead. Set this
	// whenever the input is untrusted; the fuzz harness always does.
	MaxVertices uint64
}

func (o Options) validate() error {
	if o.KeepWeights && (o.Undirected || o.Dedup) {
		return fmt.Errorf("graphio: KeepWeights cannot be combined with Undirected or Dedup")
	}
	return nil
}

// checkCount validates a header-declared vertex count against MaxVertices.
func (o Options) checkCount(n uint64) error {
	if o.MaxVertices > 0 && n > o.MaxVertices {
		return fmt.Errorf("graphio: input declares %d vertices, above Options.MaxVertices (%d)", n, o.MaxVertices)
	}
	return nil
}

// checkID validates one vertex identifier against MaxVertices.
func (o Options) checkID(id graph.VertexID) error {
	if o.MaxVertices > 0 && uint64(id) > o.MaxVertices {
		return fmt.Errorf("graphio: vertex identifier %d exceeds Options.MaxVertices (%d)", id, o.MaxVertices)
	}
	return nil
}

// growHint bounds a header-declared edge count before it is trusted as a
// pre-allocation size: with MaxVertices set, a lying header buys at most
// a MaxVertices-sized reservation (appends still grow as needed, and the
// declared/actual mismatch is reported after parsing).
func (o Options) growHint(m uint64) int {
	if o.MaxVertices > 0 && m > o.MaxVertices {
		m = o.MaxVertices
	}
	const maxHint = 1 << 31
	if m > maxHint {
		m = maxHint
	}
	return int(m)
}

// Read parses a graph of the given format from r.
func Read(r io.Reader, format Format, opts Options) (*graph.Graph, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.KeepWeights && format == FormatKONECT {
		return nil, fmt.Errorf("graphio: KeepWeights is not supported for KONECT inputs")
	}
	switch format {
	case FormatEdgeList:
		return readEdgeList(r, opts)
	case FormatKONECT:
		return readKONECT(r, opts)
	case FormatDIMACS:
		return readDIMACS(r, opts)
	case FormatBinary:
		return ReadBinary(r, opts)
	}
	return nil, fmt.Errorf("graphio: unknown format %v", format)
}

// ReadFile opens path and parses it, guessing the format from the
// extension. Files ending in .gz are decompressed transparently. A
// binary file goes to ReadBinary unbuffered, which sizes its sections
// from the file's size and reads them straight into their buffers.
func ReadFile(path string, opts Options) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	format := DetectFormat(path)
	var r io.Reader = f
	switch {
	case strings.HasSuffix(path, ".gz"):
		gz, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return nil, fmt.Errorf("graphio: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	case format != FormatBinary:
		r = bufio.NewReaderSize(f, 1<<20)
	}
	return Read(r, format, opts)
}

// Write encodes g to w in the given format. FormatKONECT output always
// carries an "asym" header (edges are written as stored, directed).
func Write(w io.Writer, g *graph.Graph, format Format) error {
	switch format {
	case FormatEdgeList:
		return writeEdgeList(w, g, "# ")
	case FormatKONECT:
		if _, err := fmt.Fprintln(w, "% asym unweighted"); err != nil {
			return err
		}
		return writeEdgeList(w, g, "% ")
	case FormatDIMACS:
		return writeDIMACS(w, g)
	case FormatBinary:
		return WriteBinary(w, g)
	}
	return fmt.Errorf("graphio: unknown format %v", format)
}

// WriteFile writes g to path, guessing the format from the extension.
// Paths ending in .gz are compressed transparently.
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var w io.Writer = bw
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(bw)
		w = gz
	}
	if err := Write(w, g, DetectFormat(path)); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func applyOpts(b *graph.Builder, opts Options) {
	if opts.Undirected {
		b.Undirected()
	}
	if opts.BuildInEdges {
		b.BuildInEdges()
	}
	if opts.Dedup {
		b.Dedup()
	}
}

func writeEdgeList(w io.Writer, g *graph.Graph, commentPrefix string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s|V|=%d |E|=%d base=%d\n", commentPrefix, g.N(), g.M(), g.Base())
	var werr error
	if g.HasWeights() {
		var nb graph.NeighborBuf
		for u := 0; u < g.N() && werr == nil; u++ {
			adj, ws := g.OutEdgesWeightedWith(&nb, u)
			for j, d := range adj {
				if _, werr = fmt.Fprintf(bw, "%d %d %d\n", g.Base()+graph.VertexID(u), g.Base()+d, ws[j]); werr != nil {
					break
				}
			}
		}
	} else {
		g.Edges(func(s, d graph.VertexID) bool {
			_, werr = fmt.Fprintf(bw, "%d %d\n", g.Base()+s, g.Base()+d)
			return werr == nil
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
