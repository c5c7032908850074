package pregelplus

import (
	"errors"
	"math"
	"testing"
	"time"

	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

func TestCodecs(t *testing.T) {
	var u Uint32Codec
	buf := make([]byte, u.Size())
	u.Encode(buf, 0xDEADBEEF)
	if u.Decode(buf) != 0xDEADBEEF {
		t.Fatal("uint32 codec roundtrip")
	}
	var f Float64Codec
	fb := make([]byte, f.Size())
	for _, v := range []float64{0, 1.5, -3.25, math.Pi, math.Inf(1)} {
		f.Encode(fb, v)
		if f.Decode(fb) != v {
			t.Fatalf("float64 codec roundtrip %v", v)
		}
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	// A star's hub receives one message per leaf; with sender-side
	// combining, each worker folds its leaves' messages into one per
	// destination.
	g := gen.Star(64, 0).Transpose() // leaves -> hub
	with, repWith, err := Hashmin(g, ClusterConfig{Nodes: 4, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	without, repWithout, err := Hashmin(g, ClusterConfig{Nodes: 4, ProcsPerNode: 2, DisableCombiner: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("combiner changed results at %d", i)
		}
	}
	if repWith.Messages >= repWithout.Messages {
		t.Fatalf("combiner did not reduce messages: %d vs %d", repWith.Messages, repWithout.Messages)
	}
	if repWith.WireBytes >= repWithout.WireBytes {
		t.Fatalf("combiner did not reduce wire bytes: %d vs %d", repWith.WireBytes, repWithout.WireBytes)
	}
}

func TestSingleNodeHasNoWireTraffic(t *testing.T) {
	g := gen.RMATN(100, 500, 3, 1, false)
	_, rep, err := PageRank(g, ClusterConfig{Nodes: 1, ProcsPerNode: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WireBytes != 0 {
		t.Fatalf("single node put %d bytes on the wire", rep.WireBytes)
	}
	if rep.NetTime != 0 {
		t.Fatalf("single node charged %v network time", rep.NetTime)
	}
}

func TestMultiNodeChargesNetwork(t *testing.T) {
	g := gen.RMATN(200, 1600, 5, 1, false)
	_, rep, err := PageRank(g, ClusterConfig{Nodes: 8, ProcsPerNode: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WireBytes == 0 {
		t.Fatal("multi-node run produced no inter-node traffic")
	}
	if rep.NetTime <= 0 {
		t.Fatal("multi-node run charged no network time")
	}
	// Every superstep pays the barrier latency at least.
	minNet := DefaultNet().LatencyPerSuperstep * time.Duration(rep.Supersteps)
	if rep.NetTime < minNet {
		t.Fatalf("NetTime %v below latency floor %v", rep.NetTime, minNet)
	}
}

func TestSuperstepLatencyDominatesHighDiameter(t *testing.T) {
	// A chain forces one superstep per hop: SSSP pays the per-superstep
	// latency ~n times, the effect behind the paper's 15,000-node
	// estimate for USA-road SSSP (§7.3).
	g := gen.Chain(300, 1)
	_, rep, err := SSSP(g, ClusterConfig{Nodes: 4, ProcsPerNode: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps < 300 {
		t.Fatalf("supersteps = %d, want ≥ 300", rep.Supersteps)
	}
	if rep.NetTime < 300*DefaultNet().LatencyPerSuperstep {
		t.Fatalf("NetTime %v too small for %d supersteps", rep.NetTime, rep.Supersteps)
	}
}

func TestMemoryAccountingGrowsWithGraph(t *testing.T) {
	small := gen.RMATN(100, 400, 1, 1, false)
	large := gen.RMATN(400, 1600, 1, 1, false)
	_, repS, err := PageRank(small, ClusterConfig{Nodes: 2, ProcsPerNode: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, repL, err := PageRank(large, ClusterConfig{Nodes: 2, ProcsPerNode: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if repS.PeakMemoryBytes == 0 || repL.PeakMemoryBytes <= repS.PeakMemoryBytes {
		t.Fatalf("peak memory: small=%d large=%d", repS.PeakMemoryBytes, repL.PeakMemoryBytes)
	}
}

func TestClusterRunsOnce(t *testing.T) {
	g := gen.Ring(10, 0)
	cl, err := NewCluster(g, ClusterConfig{}, HashminProgram(), Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestMaxSupersteps(t *testing.T) {
	g := gen.Ring(10, 0)
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v *Vertex[uint32, uint32]) {
			ctx.Broadcast(v, 1)
		},
	}
	cl, err := NewCluster(g, ClusterConfig{MaxSupersteps: 5}, prog, Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, ErrMaxSupersteps) {
		t.Fatalf("want ErrMaxSupersteps, got %v", err)
	}
}

func TestMissingCompute(t *testing.T) {
	g := gen.Ring(4, 0)
	if _, err := NewCluster(g, ClusterConfig{}, Program[uint32, uint32]{}, Uint32Codec{}); err == nil {
		t.Fatal("missing Compute accepted")
	}
}

func TestValueByID(t *testing.T) {
	g := gen.Chain(5, 1)
	cl, err := NewCluster(g, ClusterConfig{Nodes: 2, ProcsPerNode: 2}, SSSPProgram(1), Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Value(1) != 0 || cl.Value(3) != 2 {
		t.Fatalf("Value lookup wrong: %d %d", cl.Value(1), cl.Value(3))
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	g := gen.RMATN(123, 400, 9, 1, false)
	cl, err := NewCluster(g, ClusterConfig{Nodes: 3, ProcsPerNode: 2}, HashminProgram(), Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range cl.workers {
		total += len(w.verts)
		for id := range w.verts {
			if cl.ownerOf(id) != w.id {
				t.Fatalf("vertex %d on wrong worker %d", id, w.id)
			}
		}
	}
	if total != g.N() {
		t.Fatalf("partition covers %d vertices, want %d", total, g.N())
	}
}

func TestMoreWorkersThanVertices(t *testing.T) {
	g := gen.Chain(5, 1)
	// 32 workers for 5 vertices: most partitions are empty.
	dist, rep, err := SSSP(g, ClusterConfig{Nodes: 16, ProcsPerNode: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("not converged")
	}
	for i, want := range []uint32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d]=%d want %d", i, dist[i], want)
		}
	}
}

func TestEmptyGraphCluster(t *testing.T) {
	var b graph.Builder
	g := b.MustBuild()
	cl, err := NewCluster(g, ClusterConfig{Nodes: 2, ProcsPerNode: 2}, HashminProgram(), Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Messages != 0 {
		t.Fatalf("empty cluster report: %+v", rep)
	}
}

func TestStepStatsConsistent(t *testing.T) {
	g := gen.RMATN(120, 700, 5, 1, false)
	_, rep, err := PageRank(g, ClusterConfig{Nodes: 4, ProcsPerNode: 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != rep.Supersteps {
		t.Fatalf("steps %d != supersteps %d", len(rep.Steps), rep.Supersteps)
	}
	var wire, msgs uint64
	var comp, net time.Duration
	for _, s := range rep.Steps {
		wire += s.WireBytes
		msgs += s.Messages
		comp += s.Compute
		net += s.Net
	}
	if wire != rep.WireBytes || msgs != rep.Messages {
		t.Fatalf("step sums diverge: wire %d/%d msgs %d/%d", wire, rep.WireBytes, msgs, rep.Messages)
	}
	if comp != rep.ComputeTime || net != rep.NetTime {
		t.Fatalf("time sums diverge")
	}
	// PageRank keeps everything active until the final superstep.
	if rep.Steps[0].Active != int64(g.N()) {
		t.Fatalf("step 0 active = %d, want %d", rep.Steps[0].Active, g.N())
	}
	if last := rep.Steps[len(rep.Steps)-1].Active; last != 0 {
		t.Fatalf("final active = %d, want 0", last)
	}
}

func TestNetModelTransfer(t *testing.T) {
	n := NetModel{BandwidthBytesPerSec: 1e6, LatencyPerSuperstep: time.Millisecond}
	if d := n.TransferTime(1, []uint64{100}, []uint64{100}); d != 0 {
		t.Fatalf("single node transfer = %v, want 0", d)
	}
	// 2 MB on the busiest link at 1 MB/s = 2 s + 1 ms latency.
	d := n.TransferTime(2, []uint64{2e6, 0}, []uint64{0, 2e6})
	want := 2*time.Second + time.Millisecond
	if d != want {
		t.Fatalf("transfer = %v, want %v", d, want)
	}
	// Zero-value model falls back to defaults.
	def := (NetModel{}).orDefault()
	if def.BandwidthBytesPerSec != DefaultNet().BandwidthBytesPerSec {
		t.Fatal("orDefault bandwidth")
	}
	kept := (NetModel{LatencyPerSuperstep: 5 * time.Millisecond}).orDefault()
	if kept.LatencyPerSuperstep != 5*time.Millisecond {
		t.Fatal("orDefault should keep explicit latency")
	}
}

func TestWrappedMessageOverhead(t *testing.T) {
	// Wire bytes per message = 4 (recipient id) + payload — the paper's
	// "heavier messages" overhead (§7.4.4).
	g := gen.Star(10, 0) // hub 0 on worker 0, leaves spread around
	cl, err := NewCluster(g, ClusterConfig{Nodes: 5, ProcsPerNode: 2, DisableCombiner: true}, HashminProgram(), Uint32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	perMsg := uint64(wrapIDBytes + Uint32Codec{}.Size())
	if rep.WireBytes%perMsg != 0 {
		t.Fatalf("wire bytes %d not a multiple of record size %d", rep.WireBytes, perMsg)
	}
}

var _ = graph.VertexID(0)
