package graph_test

import (
	"math/rand"
	"testing"

	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

var decodeSink uint64

// BenchmarkNeighborDecode is the neighbour-decode microbenchmark: a
// sweep of OutNeighborsWith over vertices of an RMAT graph through one
// NeighborBuf, per backend, in ns per edge decoded. The orders are every
// vertex in order (the graphio writers), every vertex shuffled (a bypass
// frontier walked in fill order) and every third vertex in increasing
// order (a dense frontier walked in slot order). Run by `make bench-core`.
func BenchmarkNeighborDecode(b *testing.B) {
	flat := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	compressed, err := flat.Compress()
	if err != nil {
		b.Fatal(err)
	}
	inOrder := make([]int, flat.N())
	var sortedSparse []int
	for i := range inOrder {
		inOrder[i] = i
		if i%3 == 0 {
			sortedSparse = append(sortedSparse, i)
		}
	}
	shuffled := append([]int(nil), inOrder...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	for _, backend := range []struct {
		name string
		g    *graph.Graph
	}{{"flat", flat}, {"compressed", compressed}} {
		for _, order := range []struct {
			name string
			ids  []int
		}{{"in-order", inOrder}, {"shuffled", shuffled}, {"sorted-sparse", sortedSparse}} {
			b.Run(backend.name+"/"+order.name, func(b *testing.B) {
				g := backend.g
				var edges uint64
				for _, i := range order.ids {
					edges += uint64(g.OutDegree(i))
				}
				var nb graph.NeighborBuf
				var sum uint64
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for _, i := range order.ids {
						for _, v := range g.OutNeighborsWith(&nb, i) {
							sum += uint64(v)
						}
					}
				}
				decodeSink += sum
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*edges), "ns/edge")
			})
		}
	}
}

// BenchmarkCompressedCheck is the open-time validation sweep (every
// varint well-formed, every neighbour in range, every block consuming
// exactly its span) over a compressed out-adjacency, in ns/edge: what
// graphio.OpenMapped pays per edge before it returns. The graph is the
// RMAT Wikipedia stand-in at the divisor the repo benchmark's
// load_sssp_mmap workload maps (1.3 M edges, 2.8 stream bytes per edge).
// Run by `make bench-core` at -cpu 1 (the serial sweep) and -cpu 2 (two
// equal-byte spans on two goroutines).
func BenchmarkCompressedCheck(b *testing.B) {
	g, err := gen.Wikipedia(gen.PresetParams{Divisor: 128, Seed: 1}).Compress()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*g.M()), "ns/edge")
}
