package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ipregel/internal/graph"
)

// readEdgeList parses whitespace-separated "src dst [weight]" lines.
// Lines starting with '#' or '%' and blank lines are ignored; without
// Options.KeepWeights, extra columns (weights, timestamps) are ignored.
func readEdgeList(r io.Reader, opts Options) (*graph.Graph, error) {
	if opts.KeepWeights {
		var wb graph.WeightedBuilder
		if opts.BuildInEdges {
			wb.BuildInEdges()
		}
		sc := newScanner(r)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || text[0] == '#' || text[0] == '%' {
				continue
			}
			src, dst, w, err := parseWeightedEdge(text)
			if err != nil {
				return nil, fmt.Errorf("graphio: edge list line %d: %w", line, err)
			}
			if err := firstErr(opts.checkID(src), opts.checkID(dst)); err != nil {
				return nil, fmt.Errorf("graphio: edge list line %d: %w", line, err)
			}
			wb.AddEdge(src, dst, w)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return wb.Build()
	}
	var b graph.Builder
	applyOpts(&b, opts)
	sc := newScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		src, dst, err := parseEdge(text)
		if err != nil {
			return nil, fmt.Errorf("graphio: edge list line %d: %w", line, err)
		}
		if err := firstErr(opts.checkID(src), opts.checkID(dst)); err != nil {
			return nil, fmt.Errorf("graphio: edge list line %d: %w", line, err)
		}
		b.AddEdge(src, dst)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readKONECT parses the KONECT TSV format. The first '%' header line may
// declare "sym" (undirected) or "asym"/"bip" (directed); subsequent '%'
// lines are comments. Data lines are "src dst [weight [time]]".
func readKONECT(r io.Reader, opts Options) (*graph.Graph, error) {
	var b graph.Builder
	applyOpts(&b, opts)
	sc := newScanner(r)
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text[0] == '%' {
			if !sawHeader {
				sawHeader = true
				if !opts.Undirected && strings.Contains(text, "sym") && !strings.Contains(text, "asym") {
					b.Undirected()
				}
			}
			continue
		}
		src, dst, err := parseEdge(text)
		if err != nil {
			return nil, fmt.Errorf("graphio: KONECT line %d: %w", line, err)
		}
		if err := firstErr(opts.checkID(src), opts.checkID(dst)); err != nil {
			return nil, fmt.Errorf("graphio: KONECT line %d: %w", line, err)
		}
		b.AddEdge(src, dst)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// readDIMACS parses the DIMACS challenge-9 .gr format used by the USA road
// network: "c" comment lines, one "p sp <n> <m>" problem line, and
// "a <src> <dst> <weight>" arc lines. Edge weights are ignored (the paper's
// SSSP assumes unit weights, §4 footnote 1). Vertex identifiers are
// 1-based, exactly the case that motivates the paper's offset mapping
// (§5).
func readDIMACS(r io.Reader, opts Options) (*graph.Graph, error) {
	var b graph.Builder
	var wb graph.WeightedBuilder
	if opts.KeepWeights {
		if opts.BuildInEdges {
			wb.BuildInEdges()
		}
	} else {
		applyOpts(&b, opts)
	}
	sc := newScanner(r)
	line := 0
	declaredN := 0
	declaredM := uint64(0)
	seenP := false
	arcs := uint64(0)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			if seenP {
				return nil, fmt.Errorf("graphio: DIMACS line %d: duplicate problem line", line)
			}
			seenP = true
			var kind string
			if _, err := fmt.Sscanf(text, "p %s %d %d", &kind, &declaredN, &declaredM); err != nil {
				return nil, fmt.Errorf("graphio: DIMACS line %d: bad problem line: %w", line, err)
			}
			if declaredN < 0 {
				return nil, fmt.Errorf("graphio: DIMACS line %d: negative vertex count %d", line, declaredN)
			}
			if err := opts.checkCount(uint64(declaredN)); err != nil {
				return nil, fmt.Errorf("graphio: DIMACS line %d: %w", line, err)
			}
			if opts.KeepWeights {
				wb.ForceN(declaredN)
				wb.SetBase(1)
				wb.Grow(opts.growHint(declaredM))
			} else {
				b.ForceN = declaredN
				b.SetBase(1)
				b.Grow(opts.growHint(declaredM))
			}
		case 'a':
			if !seenP {
				return nil, fmt.Errorf("graphio: DIMACS line %d: arc before problem line", line)
			}
			var s, d, w uint64
			if _, err := fmt.Sscanf(text, "a %d %d %d", &s, &d, &w); err != nil {
				return nil, fmt.Errorf("graphio: DIMACS line %d: bad arc: %w", line, err)
			}
			if s > uint64(^graph.VertexID(0)) || d > uint64(^graph.VertexID(0)) {
				return nil, fmt.Errorf("graphio: DIMACS line %d: identifier overflows 32-bit vertex ids", line)
			}
			if err := firstErr(opts.checkID(graph.VertexID(s)), opts.checkID(graph.VertexID(d))); err != nil {
				return nil, fmt.Errorf("graphio: DIMACS line %d: %w", line, err)
			}
			if opts.KeepWeights {
				wb.AddEdge(graph.VertexID(s), graph.VertexID(d), uint32(w))
			} else {
				b.AddEdge(graph.VertexID(s), graph.VertexID(d))
			}
			arcs++
		default:
			return nil, fmt.Errorf("graphio: DIMACS line %d: unknown record %q", line, text[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenP {
		return nil, fmt.Errorf("graphio: DIMACS input has no problem line")
	}
	if arcs != declaredM {
		return nil, fmt.Errorf("graphio: DIMACS declared %d arcs, found %d", declaredM, arcs)
	}
	if opts.KeepWeights {
		return wb.Build()
	}
	return b.Build()
}

func writeDIMACS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "c generated by ipregel graphio")
	// DIMACS is 1-based: shift so the smallest written identifier is 1.
	fmt.Fprintf(bw, "p sp %d %d\n", g.N(), g.M())
	var werr error
	if g.HasWeights() {
		var nb graph.NeighborBuf
		for u := 0; u < g.N() && werr == nil; u++ {
			adj, ws := g.OutEdgesWeightedWith(&nb, u)
			for j, d := range adj {
				if _, werr = fmt.Fprintf(bw, "a %d %d %d\n", u+1, uint64(d)+1, ws[j]); werr != nil {
					break
				}
			}
		}
	} else {
		g.Edges(func(s, d graph.VertexID) bool {
			_, werr = fmt.Fprintf(bw, "a %d %d 1\n", uint64(s)+1, uint64(d)+1)
			return werr == nil
		})
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return sc
}

// parseEdge extracts the first two integer fields of a data line without
// allocating a field slice (these loops dominate load time on
// multi-hundred-million-edge files).
func parseEdge(s string) (src, dst graph.VertexID, err error) {
	i := 0
	src, i, err = parseUint(s, i)
	if err != nil {
		return 0, 0, err
	}
	dst, _, err = parseUint(s, i)
	if err != nil {
		return 0, 0, err
	}
	return src, dst, nil
}

// parseWeightedEdge parses "src dst [weight]", defaulting the weight to 1.
func parseWeightedEdge(s string) (src, dst graph.VertexID, w uint32, err error) {
	i := 0
	src, i, err = parseUint(s, i)
	if err != nil {
		return 0, 0, 0, err
	}
	dst, i, err = parseUint(s, i)
	if err != nil {
		return 0, 0, 0, err
	}
	wv, _, werr := parseUint(s, i)
	if werr != nil {
		return src, dst, 1, nil // no weight column
	}
	return src, dst, uint32(wv), nil
}

func parseUint(s string, i int) (graph.VertexID, int, error) {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	if i >= len(s) || s[i] < '0' || s[i] > '9' {
		return 0, i, fmt.Errorf("expected integer in %q", s)
	}
	var v uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + uint64(s[i]-'0')
		if v > uint64(^graph.VertexID(0)) {
			return 0, i, fmt.Errorf("identifier overflows 32 bits in %q", s)
		}
		i++
	}
	return graph.VertexID(v), i, nil
}
