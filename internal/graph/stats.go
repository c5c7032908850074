package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarises the structural properties the paper's analysis keys on:
// size (Tables 1–2), density and average out-degree (the second performance
// factor of §7.2), and the degree distribution shape.
type Stats struct {
	Name string
	V    int
	E    uint64

	AvgOutDegree float64
	MaxOutDegree int
	// Density is |E| / (|V|*(|V|-1)).
	Density float64
	// Isolated counts vertices with neither in- nor out-edges.
	Isolated int
}

// ComputeStats scans the graph once and fills a Stats record.
func ComputeStats(name string, g *Graph) Stats {
	s := Stats{Name: name, V: g.N(), E: g.M()}
	if s.V == 0 {
		return s
	}
	// In-degrees come from the in-adjacency when it is in memory and from
	// one out-edge scan otherwise: reporting on a graph must not be what
	// builds an on-demand in-adjacency.
	inDegree := g.InDegree
	if !g.InEdgesResident() {
		in := make([]uint32, g.N())
		g.Edges(func(_, v VertexID) bool { in[v]++; return true })
		inDegree = func(i int) int { return int(in[i]) }
	}
	for i := 0; i < g.N(); i++ {
		d := g.OutDegree(i)
		if d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d == 0 && inDegree(i) == 0 {
			s.Isolated++
		}
	}
	s.AvgOutDegree = float64(s.E) / float64(s.V)
	if s.V > 1 {
		s.Density = float64(s.E) / (float64(s.V) * float64(s.V-1))
	}
	return s
}

// String renders the stats as one row, in the spirit of the paper's
// Table 1 / Table 2.
func (s Stats) String() string {
	return fmt.Sprintf("%-12s |V|=%-10d |E|=%-12d avg-deg=%.2f max-deg=%d density=%.3g",
		s.Name, s.V, s.E, s.AvgOutDegree, s.MaxOutDegree, s.Density)
}

// DegreeHistogram returns counts of out-degrees bucketed by powers of two:
// bucket k counts vertices with out-degree in [2^k, 2^(k+1)), bucket 0 also
// counting degree 0 and 1 split as [0] and [1] is not needed for shape
// checks; degree 0 lands in bucket 0.
func DegreeHistogram(g *Graph) []int {
	var hist []int
	for i := 0; i < g.N(); i++ {
		d := g.OutDegree(i)
		b := 0
		if d > 0 {
			b = int(math.Log2(float64(d))) + 1
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// OutDegreeQuantile returns the q-quantile of the out-degree
// distribution (0 < q <= 1): the smallest degree d such that at least
// q·N vertices have out-degree <= d. Vertices above the p99.9
// (q = 0.999) are the extreme tail a scale-free graph concentrates its
// edges in (graphinfo's "degree skew" line). Returns 0 on an empty
// graph.
func OutDegreeQuantile(g *Graph, q float64) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	degs := make([]int, n)
	for i := range degs {
		degs[i] = g.OutDegree(i)
	}
	sort.Ints(degs)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return degs[k-1]
}

// GiniOutDegree computes the Gini coefficient of the out-degree
// distribution — a scale-free RMAT graph scores high (>0.5), a road grid
// scores near 0. Tests use it to check that the synthetic stand-ins have
// the right shape.
func GiniOutDegree(g *Graph) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	degs := make([]int, n)
	for i := range degs {
		degs[i] = g.OutDegree(i)
	}
	sort.Ints(degs)
	var cum, total float64
	var weighted float64
	for i, d := range degs {
		cum += float64(d)
		weighted += float64(i+1) * float64(d)
		total += float64(d)
	}
	if total == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*total) - float64(n+1)/float64(n)
}
