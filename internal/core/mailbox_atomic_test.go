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
func hammerMailbox[M any](t *testing.T, mb mailbox[M], workers, perWorker, hot int, msgAt func(w, k int) (slot int, msg M)) []M {
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
	mb.swap(nil, true)
	out := make([]M, hot)
	for s := 0; s < hot; s++ {
		var ok bool
		if out[s], ok = mb.peek(s); !ok {
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
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin, CombinerAtomic} {
		t.Run(comb.String(), func(t *testing.T) {
			mb, err := newMailbox[uint32](Config{Combiner: comb, Threads: workers}, hot, sum32)
			if err != nil {
				t.Fatal(err)
			}
			got := hammerMailbox(t, mb, workers, perWorker, hot, msgAt)
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("slot %d: combined %d, want %d", s, got[s], want[s])
				}
			}
		})
	}
}

// TestAtomicMailboxWideAndNarrow exercises the CAS combiner's 8-byte and
// 4-byte bit conversions: float64 sums over exactly representable
// integers (so reordering cannot perturb the total) and int64 max.
func TestAtomicMailboxWideAndNarrow(t *testing.T) {
	const (
		workers   = 8
		perWorker = 3000
		hot       = 2
	)
	t.Run("float64-sum", func(t *testing.T) {
		sumF := func(old *float64, new float64) { *old += new }
		msgAt := func(w, k int) (int, float64) { return k % hot, float64(w%5 + 1) }
		want := make([]float64, hot)
		for w := 0; w < workers; w++ {
			for k := 0; k < perWorker; k++ {
				slot, msg := msgAt(w, k)
				want[slot] += msg
			}
		}
		mb, err := newMailbox[float64](Config{Combiner: CombinerAtomic, Threads: workers}, hot, sumF)
		if err != nil {
			t.Fatal(err)
		}
		got := hammerMailbox(t, mb, workers, perWorker, hot, msgAt)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("slot %d: combined %v, want %v", s, got[s], want[s])
			}
		}
	})
	t.Run("int64-max", func(t *testing.T) {
		maxI := func(old *int64, new int64) {
			if new > *old {
				*old = new
			}
		}
		msgAt := func(w, k int) (int, int64) { return (w * k) % hot, int64(w*1000 + k) }
		want := make([]int64, hot)
		for w := 0; w < workers; w++ {
			for k := 0; k < perWorker; k++ {
				slot, msg := msgAt(w, k)
				if msg > want[slot] {
					want[slot] = msg
				}
			}
		}
		mb, err := newMailbox[int64](Config{Combiner: CombinerAtomic, Threads: workers}, hot, maxI)
		if err != nil {
			t.Fatal(err)
		}
		got := hammerMailbox(t, mb, workers, perWorker, hot, msgAt)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("slot %d: combined %v, want %v", s, got[s], want[s])
			}
		}
	})
}

// TestAtomicCombinerRejectsOversizedMessage: the fallback the tentpole
// promises — a clear construction error for messages wider than a word.
func TestAtomicCombinerRejectsOversizedMessage(t *testing.T) {
	type wide struct{ a, b uint64 }
	g := ringGraph(4, 0)
	//ipregel:ignore msgword this test exercises exactly the construction error the analyzer predicts
	_, err := New(g, Config{Combiner: CombinerAtomic}, Program[uint32, wide]{
		Combine: func(old *wide, new wide) { old.a += new.a },
		Compute: func(ctx *Context[uint32, wide], v Vertex[uint32, wide]) { ctx.VoteToHalt(v) },
	})
	if err == nil || !strings.Contains(err.Error(), "machine word") {
		t.Fatalf("want word-size rejection, got %v", err)
	}
}

// TestAtomicEngineHotHubStress runs a full engine superstep loop where
// every vertex floods the single hub vertex — end-to-end contention over
// the CAS mailbox, meaningful under -race.
func TestAtomicEngineHotHubStress(t *testing.T) {
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
	cfg := Config{Combiner: CombinerAtomic, Threads: 8, CheckInvariants: true}
	e, _, err := Run(g, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ValuesDense()[0]; got != want {
		t.Fatalf("hub accumulated %d, want %d", got, want)
	}
}

func TestParseCombiner(t *testing.T) {
	if c, err := ParseCombiner("atomic"); err != nil || c != CombinerAtomic {
		t.Fatalf("ParseCombiner(atomic) = %v, %v", c, err)
	}
	if c, err := ParseCombiner("cas"); err != nil || c != CombinerAtomic {
		t.Fatalf("ParseCombiner(cas) = %v, %v", c, err)
	}
	got := Config{Combiner: CombinerAtomic, SelectionBypass: true}.VersionName()
	if got != "atomic+bypass" {
		t.Fatalf("VersionName = %q", got)
	}
}
