package service

import (
	"ipregel/internal/algorithms"
	"ipregel/internal/graph"
)

// canonPageRank canonicalises a pagerank request's params.
func canonPageRank(g *graph.Graph, p Params) (Params, error) {
	app, _ := algorithms.LookupApp("pagerank")
	return canon(g, app, p)
}

const defaultRounds = algorithms.DefaultRounds
