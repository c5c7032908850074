package pregelplus

import (
	"errors"
	"fmt"
	"time"

	"ipregel/internal/graph"
)

// Cluster is a simulated Pregel+ deployment: cfg.Nodes machines ×
// cfg.ProcsPerNode worker processes, each owning a hash partition of the
// graph. Workers really execute their compute, serialisation and delivery
// work (sequentially, individually timed); the simulated clock charges
// max-over-workers per phase — i.e. perfect overlap across machines — plus
// the modelled network transfer, which is the paper's idealised view of a
// BSP superstep.
type Cluster[V, M any] struct {
	cfg     ClusterConfig
	codec   Codec[M]
	prog    Program[V, M]
	combine func(old *M, new M)

	g             *graph.Graph
	workers       []*worker[V, M]
	workerCount   int
	procsPerNode  int
	nodeCount     int
	totalVertices int

	superstep int
	report    Report
	ran       bool
}

// NewCluster partitions g across the configured workers.
func NewCluster[V, M any](g *graph.Graph, cfg ClusterConfig, prog Program[V, M], codec Codec[M]) (*Cluster[V, M], error) {
	if prog.Compute == nil {
		return nil, errors.New("pregelplus: Program.Compute is required")
	}
	cl := &Cluster[V, M]{
		cfg:           cfg,
		codec:         codec,
		prog:          prog,
		g:             g,
		workerCount:   cfg.workers(),
		nodeCount:     cfg.nodes(),
		totalVertices: g.N(),
	}
	cl.procsPerNode = cl.workerCount / cl.nodeCount
	if !cfg.DisableCombiner {
		cl.combine = prog.Combine
	}
	cl.workers = make([]*worker[V, M], cl.workerCount)
	for i := range cl.workers {
		cl.workers[i] = newWorker(cl, i)
	}
	base := g.Base()
	for i := 0; i < g.N(); i++ {
		id := g.ExternalID(i)
		adj := g.OutNeighbors(i)
		out := make([]graph.VertexID, len(adj))
		for j, nb := range adj {
			out[j] = base + nb
		}
		v := &Vertex[V, M]{ID: id, active: true, outEdges: out}
		owner := cl.workers[cl.ownerOf(id)]
		owner.addVertex(v)
	}
	return cl, nil
}

// ownerOf hash-partitions identifiers across workers, id mod W —
// Pregel's default, destroying locality but balancing counts.
func (cl *Cluster[V, M]) ownerOf(id graph.VertexID) int {
	return int(id) % cl.workerCount
}

// ErrMaxSupersteps mirrors core.ErrMaxSupersteps for the baseline.
var ErrMaxSupersteps = errors.New("pregelplus: superstep limit exceeded")

// Run executes supersteps to quiescence and returns the report. A
// Cluster can run only once.
func (cl *Cluster[V, M]) Run() (Report, error) {
	if cl.ran {
		return Report{}, errors.New("pregelplus: cluster already ran")
	}
	cl.ran = true
	net := cl.cfg.Net.orDefault()

	outBytes := make([]uint64, cl.nodeCount)
	inBytes := make([]uint64, cl.nodeCount)
	incoming := make([][][]byte, cl.workerCount)

	for {
		if cl.cfg.MaxSupersteps > 0 && cl.superstep >= cl.cfg.MaxSupersteps {
			return cl.report, fmt.Errorf("%w (%d)", ErrMaxSupersteps, cl.cfg.MaxSupersteps)
		}
		first := cl.superstep == 0
		wireBefore := cl.report.WireBytes
		for _, w := range cl.workers {
			w.resetSendBuffers()
		}

		// Compute phase: real work, individually timed; the cluster-wide
		// cost is the slowest worker (BSP barrier).
		var maxCompute time.Duration
		for _, w := range cl.workers {
			if d := w.computePhase(first); d > maxCompute {
				maxCompute = d
			}
		}

		// Exchange phase: route wire buffers, tallying inter-node traffic.
		clear(outBytes)
		clear(inBytes)
		for i := range incoming {
			incoming[i] = incoming[i][:0]
		}
		for _, src := range cl.workers {
			for dw, buf := range src.rawOut {
				if len(buf) == 0 {
					continue
				}
				incoming[dw] = append(incoming[dw], buf)
				srcNode, dstNode := src.node, dw/cl.procsPerNode
				if srcNode != dstNode {
					outBytes[srcNode] += uint64(len(buf))
					inBytes[dstNode] += uint64(len(buf))
					cl.report.WireBytes += uint64(len(buf))
				}
			}
		}
		netDur := net.TransferTime(cl.nodeCount, outBytes, inBytes)

		// Delivery phase: decode and enqueue through the hash maps.
		var maxDeliver time.Duration
		var delivered uint64
		for _, w := range cl.workers {
			d, n := w.deliverPhase(incoming[w.id])
			if d > maxDeliver {
				maxDeliver = d
			}
			delivered += n
		}

		cl.report.ComputeTime += maxCompute + maxDeliver
		cl.report.NetTime += netDur

		var ranT, votesT int64
		var sent uint64
		for _, w := range cl.workers {
			ranT += w.ran
			votesT += w.votes
			sent += w.msgsSent
		}
		// The analytic footprint scan walks every vertex, so it is sampled
		// rather than taken at every barrier: densely at the start (queues
		// and buffers peak within the first supersteps) and sparsely after.
		if cl.superstep < 8 || cl.superstep%32 == 0 {
			var mem uint64
			for _, w := range cl.workers {
				mem += w.memoryBytes()
			}
			if mem > cl.report.PeakMemoryBytes {
				cl.report.PeakMemoryBytes = mem
			}
		}
		cl.report.Messages += sent
		activeAfter := ranT - votesT
		cl.report.Steps = append(cl.report.Steps, StepStats{
			Compute:   maxCompute + maxDeliver,
			Net:       netDur,
			WireBytes: cl.report.WireBytes - wireBefore,
			Messages:  sent,
			Active:    activeAfter,
		})

		cl.superstep++
		if activeAfter == 0 && delivered == 0 {
			break
		}
	}
	cl.report.Supersteps = cl.superstep
	cl.report.SimTime = cl.report.ComputeTime + cl.report.NetTime
	cl.report.Converged = true
	return cl.report, nil
}

// Value returns the final value of the vertex with identifier id.
func (cl *Cluster[V, M]) Value(id graph.VertexID) V {
	return cl.workers[cl.ownerOf(id)].verts[id].Value
}

// ValuesDense copies values out in internal-index order, matching
// core.Engine.ValuesDense for cross-framework comparison.
func (cl *Cluster[V, M]) ValuesDense() []V {
	out := make([]V, cl.g.N())
	for i := range out {
		id := cl.g.ExternalID(i)
		out[i] = cl.workers[cl.ownerOf(id)].verts[id].Value
	}
	return out
}

// MemoryBytes returns the current analytic framework footprint across
// all workers.
func (cl *Cluster[V, M]) MemoryBytes() uint64 {
	var total uint64
	for _, w := range cl.workers {
		total += w.memoryBytes()
	}
	return total
}
