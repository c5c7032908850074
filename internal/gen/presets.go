package gen

import (
	"fmt"
	"sort"
	"strings"

	"ipregel/internal/graph"
)

// Paper dataset sizes (Tables 1 and 2). The stand-ins generated here keep
// the |V| : |E| ratios of the originals and scale both down by a common
// divisor so experiments fit a laptop-class budget.
const (
	WikipediaV  = 18_268_992
	WikipediaE  = 172_183_984
	USARoadV    = 23_947_347
	USARoadE    = 58_333_344
	TwitterV    = 52_579_682
	TwitterE    = 1_963_263_821
	FriendsterV = 68_349_466
	FriendsterE = 2_586_147_869
)

// DefaultScaleDivisor shrinks the paper's graphs to roughly 1/64 so the
// full experiment suite runs in minutes on two cores (the paper used a
// 2-core EC2 m4.large; this reproduction typically has similar parallelism
// but far less than the hours-long runtime budget of the paper).
const DefaultScaleDivisor = 64

// RMATN generates a directed power-law graph with an arbitrary (non
// power-of-two) vertex count by rejection-sampling Graph500 RMAT edges
// (0.57, 0.19, 0.19) drawn at the next power of two. It needs n ≥ 1 when
// m > 0 and panics otherwise.
func RMATN(n int, m uint64, seed int64, base graph.VertexID, inEdges bool) *graph.Graph {
	return rmat(n, m, 0.57, 0.19, 0.19, seed, base, inEdges)
}

// PresetParams selects one of the paper-graph stand-ins.
type PresetParams struct {
	// Divisor scales |V| and |E| down; DefaultScaleDivisor if zero.
	Divisor int
	// Seed defaults to a fixed per-preset constant when zero, keeping the
	// benchmark graphs reproducible across runs.
	Seed int64
	// BuildInEdges materialises in-adjacency (required by the pull
	// combiner).
	BuildInEdges bool
}

func (p PresetParams) divisor() int {
	if p.Divisor <= 0 {
		return DefaultScaleDivisor
	}
	return p.Divisor
}

// Wikipedia generates the Wikipedia (dbpedia-link) stand-in: power-law,
// avg out-degree ≈ 9.4. External identifiers start at 1, matching the
// KONECT original ("contiguous indexes starting at 1", §7.1.3).
func Wikipedia(p PresetParams) *graph.Graph {
	d := p.divisor()
	seed := p.Seed
	if seed == 0 {
		seed = 101
	}
	return RMATN(WikipediaV/d, uint64(WikipediaE/d), seed, 1, p.BuildInEdges)
}

// USARoad generates the USA road network stand-in: a near-square grid with
// |V| matching the scaled target. Average degree ≈ 4 (the original is
// 2.44); the properties the paper's analysis uses — near-uniform degree and
// O(sqrt|V|) diameter — are preserved. Identifiers start at 1 like the
// DIMACS original.
func USARoad(p PresetParams) *graph.Graph {
	d := p.divisor()
	n := USARoadV / d
	rows := intSqrt(n)
	cols := (n + rows - 1) / rows
	seed := p.Seed
	if seed == 0 {
		seed = 202
	}
	return Road(RoadParams{Rows: rows, Cols: cols, Seed: seed, Base: 1, BuildInEdges: p.BuildInEdges})
}

// Twitter generates the Twitter (MPI) stand-in used by the §7.4 memory
// experiments, at pct percent of the (scaled) original — mirroring the
// paper's proportional synthetic graphs ("a synthetic graph described as
// 20% contains a fifth of the number of vertices and a fifth of the number
// of edges of the original Twitter graph", §7.4.2).
func Twitter(p PresetParams, pct int) *graph.Graph {
	d := p.divisor()
	seed := p.Seed
	if seed == 0 {
		seed = 303
	}
	n := TwitterV / d * pct / 100
	m := uint64(TwitterE) / uint64(d) * uint64(pct) / 100
	return RMATN(n, m, seed, 1, p.BuildInEdges)
}

// Friendster generates the Friendster stand-in (§7.4.3's largest graph).
func Friendster(p PresetParams) *graph.Graph {
	d := p.divisor()
	seed := p.Seed
	if seed == 0 {
		seed = 404
	}
	return RMATN(FriendsterV/d, uint64(FriendsterE)/uint64(d), seed, 1, p.BuildInEdges)
}

// ByName builds a preset or parameterised generator graph from a
// command-line-friendly name:
//
//	wiki | usa | twitter | friendster         (paper stand-ins)
//	rmat:<scale>:<edgefactor>                 (power of two RMAT)
//	road:<rows>:<cols>                        (grid road network)
//	er:<n>:<m> | ring:<n> | star:<n> | chain:<n> | ba:<n>:<k> | ws:<n>:<k>
//
// It refuses what CheckSpec refuses before building anything.
func ByName(name string, p PresetParams) (*graph.Graph, error) {
	if err := CheckSpec(name, p); err != nil {
		return nil, err
	}
	kind, args, _ := strings.Cut(name, ":")
	var a, b int
	nargs, _ := fmt.Sscanf(args, "%d:%d", &a, &b)
	seed := nonZero(p.Seed, 1)
	switch {
	case name == "wiki" || name == "wikipedia":
		return Wikipedia(p), nil
	case name == "usa" || name == "road-usa":
		return USARoad(p), nil
	case name == "twitter":
		return Twitter(p, 100), nil
	case name == "friendster":
		return Friendster(p), nil
	case kind == "rmat" && nargs == 2:
		q := DefaultRMAT(a, b, seed)
		q.BuildInEdges = p.BuildInEdges
		return RMAT(q), nil
	case kind == "road" && nargs == 2:
		return Road(RoadParams{Rows: a, Cols: b, Seed: seed, Base: 1, BuildInEdges: p.BuildInEdges}), nil
	case kind == "er" && nargs == 2:
		return maybeIn(ER(a, b, seed, 0), p), nil
	case kind == "ring" && nargs > 0:
		return maybeIn(Ring(a, 0), p), nil
	case kind == "star" && nargs > 0:
		return maybeIn(Star(a, 0), p), nil
	case kind == "chain" && nargs > 0:
		return maybeIn(Chain(a, 0), p), nil
	case kind == "ba" && nargs == 2:
		return maybeIn(BarabasiAlbert(a, b, seed, 0), p), nil
	case kind == "ws" && nargs == 2:
		return maybeIn(WattsStrogatz(a, b, 0.1, seed, 0), p), nil
	}
	return nil, fmt.Errorf("gen: unknown graph spec %q", name)
}

// CheckSpec refuses the sizes no generator can build: a negative size in
// any "kind:a:b" spec, an RMAT scale above 31 (ids past 32 bits), and an
// RMAT or ER graph with edges to place but no vertices (a preset divisor
// in (|V|, |E|]). Unknown kinds pass, so a caller with generators of its
// own checks their sizes here too.
func CheckSpec(name string, p PresetParams) error {
	kind, args, _ := strings.Cut(name, ":")
	var a, b int
	fmt.Sscanf(args, "%d:%d", &a, &b)
	v, e := 0, 0 // paper-scale |V| and |E| of an RMAT stand-in
	switch name {
	case "wiki", "wikipedia":
		v, e = WikipediaV, WikipediaE
	case "twitter":
		v, e = TwitterV, TwitterE
	case "friendster":
		v, e = FriendsterV, FriendsterE
	}
	switch d := p.divisor(); {
	case a < 0 || b < 0:
		return fmt.Errorf("gen: graph spec %q has a negative size", name)
	case kind == "rmat" && a > 31:
		return fmt.Errorf("gen: graph spec %q: RMAT scale above 31 puts ids past 32 bits", name)
	case kind == "er" && a == 0 && b > 0:
		return fmt.Errorf("gen: graph spec %q has edges to place but no vertices", name)
	case v/d == 0 && e/d > 0:
		return fmt.Errorf("gen: graph spec %q at divisor %d has no vertices for its %d edges", name, d, e/d)
	}
	return nil
}

// Names returns the recognised preset names for help text.
func Names() []string {
	n := []string{"wiki", "usa", "twitter", "friendster", "rmat:<scale>:<ef>", "road:<rows>:<cols>", "er:<n>:<m>", "ring:<n>", "star:<n>", "chain:<n>", "ba:<n>:<k>", "ws:<n>:<k>"}
	sort.Strings(n[:4])
	return n
}

func maybeIn(g *graph.Graph, p PresetParams) *graph.Graph {
	if p.BuildInEdges {
		return g.WithInEdges()
	}
	return g
}

func nonZero(s, def int64) int64 {
	if s == 0 {
		return def
	}
	return s
}

func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	if r*r > n {
		r--
	}
	if r < 1 {
		r = 1
	}
	return r
}
