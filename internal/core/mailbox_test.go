package core

import (
	"strings"
	"sync"
	"testing"

	"ipregel/internal/graph"
)

// hammerMailbox drives delivery from `workers` goroutines, each sending
// `perWorker` messages into `hot` slots, and returns the per-slot values
// the mailbox ends up holding. The message sequence is deterministic, so
// callers can compare against a sequential reference.
func hammerMailbox[M any](t *testing.T, mb mailbox[M], buf *pushBuffers[M], workers, perWorker, hot int, msgAt func(w, k int) (slot int, msg M)) []M {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				slot, msg := msgAt(w, k)
				mb.scatter([]graph.VertexID{graph.VertexID(slot)}, msg, nil)
			}
		}(w)
	}
	wg.Wait()
	buf.swap(nil, true)
	out := make([]M, hot)
	for s := 0; s < hot; s++ {
		var ok bool
		if out[s], ok = buf.peek(s); !ok {
			t.Fatalf("slot %d: no message after hammering", s)
		}
	}
	return out
}

// TestPushCombinerHotSlotStress hammers deliver on every push combiner
// from many goroutines targeting few hot slots with a *sum* combine —
// the combine that exposes lost updates — and checks the combined result
// against the sequential reference. Run under -race this also proves the
// delivery paths are data-race-clean.
func TestPushCombinerHotSlotStress(t *testing.T) {
	const (
		workers   = 8
		perWorker = 5000
		hot       = 3 // few hot slots → maximal contention
	)
	sum32 := func(old *uint32, new uint32) { *old += new }
	msgAt := func(w, k int) (int, uint32) {
		return (w + k) % hot, uint32(w*perWorker+k)%97 + 1
	}
	want := make([]uint32, hot)
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			slot, msg := msgAt(w, k)
			want[slot] += msg
		}
	}
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		t.Run(comb.String(), func(t *testing.T) {
			mb, buf, err := newMailbox[uint32](Config{Combiner: comb, Threads: workers}, hot, sum32)
			if err != nil {
				t.Fatal(err)
			}
			got := hammerMailbox(t, mb, buf, workers, perWorker, hot, msgAt)
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("slot %d: combined %d, want %d", s, got[s], want[s])
				}
			}
		})
	}
}

// TestEngineHotHubStress runs a full engine superstep loop where every
// vertex floods the single hub vertex — end-to-end contention over each
// lock inbox at eight workers, meaningful under -race.
func TestEngineHotHubStress(t *testing.T) {
	const n = 2000
	var b graph.Builder
	b.BuildInEdges()
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(i), 0) // all roads lead to the hub
	}
	g := b.MustBuild()
	prog := Program[uint64, uint64]{
		Combine: func(old *uint64, new uint64) { *old += new },
		Compute: func(ctx *Context[uint64, uint64], v Vertex[uint64, uint64]) {
			var m uint64
			for ctx.NextMessage(v, &m) {
				*v.Value() += m
			}
			if ctx.Superstep() < 3 {
				ctx.Broadcast(v, uint64(v.ID())+1)
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
	var want uint64
	for i := 1; i < n; i++ {
		want += uint64(i) + 1
	}
	want *= 3 // three broadcasting supersteps
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		e, _, err := Run(g, Config{Combiner: comb, Threads: 8, CheckInvariants: true}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.ValuesDense()[0]; got != want {
			t.Fatalf("%s: hub accumulated %d, want %d", comb, got, want)
		}
	}
}

// TestParseCombiner: the lock-free CAS inbox is gone, and its names fail
// with an error that lists the combiners there are.
func TestParseCombiner(t *testing.T) {
	for _, name := range []string{"atomic", "cas"} {
		if _, err := ParseCombiner(name); err == nil || !strings.Contains(err.Error(), "mutex | spinlock") {
			t.Fatalf("ParseCombiner(%q) err = %v, want an error naming mutex | spinlock", name, err)
		}
	}
	if c, err := ParseCombiner("spin"); err != nil || c != CombinerSpin {
		t.Fatalf("ParseCombiner(spin) = %v, %v", c, err)
	}
}
