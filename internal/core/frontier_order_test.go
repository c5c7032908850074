package core_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// frontierOrders are the three ways a bypass superstep can pick its
// order: always the fill-ordered list (the engine before slot order
// existed), always the slot-order scan, and the derived cut.
var frontierOrders = []struct {
	name string
	cut  int
}{{"list", 0}, {"slot", 1 << 30}, {"derived", -1}}

// orderConfigs are the inbox versions the parity test crosses with the
// orders: the plain inbox (one thread) and the two lock-based ones at
// two and four threads, all with the barrier audits on.
func orderConfigs() []core.Config {
	cfgs := []core.Config{{Threads: 1, SelectionBypass: true, CheckInvariants: true}}
	for _, threads := range []int{2, 4} {
		for _, comb := range []core.Combiner{core.CombinerSpin, core.CombinerMutex} {
			cfgs = append(cfgs, core.Config{Combiner: comb, Threads: threads, SelectionBypass: true, CheckInvariants: true})
		}
	}
	return cfgs
}

// maxOutDegree returns the external id of a highest-out-degree vertex: a
// source whose first frontiers are dense.
func maxOutDegree(g *graph.Graph) graph.VertexID {
	best := 0
	for i := 1; i < g.N(); i++ {
		if g.OutDegree(i) > g.OutDegree(best) {
			best = i
		}
	}
	return g.ExternalID(best)
}

// orderCase is one bypass program of internal/algorithms with its
// sequential reference.
type orderCase struct {
	name string
	g    *graph.Graph
	run  func(g *graph.Graph, cfg core.Config) (any, error)
	ref  any
}

func orderCases(t *testing.T) []orderCase {
	g := gen.RMATN(3000, 24000, 7, 1, true)
	wg := gen.WeightedER(3000, 15000, 7, 1, 1, 40)
	src, wsrc := maxOutDegree(g), maxOutDegree(wg)
	return []orderCase{
		{"sssp", g, func(g *graph.Graph, cfg core.Config) (any, error) {
			v, _, err := algorithms.SSSP(g, cfg, src)
			return v, err
		}, algorithms.RefSSSP(g, src)},
		{"bfs", g, func(g *graph.Graph, cfg core.Config) (any, error) {
			v, _, err := algorithms.BFS(g, cfg, src)
			return v, err
		}, algorithms.RefBFS(g, src)},
		{"wcc", g, func(g *graph.Graph, cfg core.Config) (any, error) {
			v, _, err := algorithms.WCC(g, cfg)
			return v, err
		}, algorithms.RefWCC(g.Symmetrize(false))},
		{"wsssp", wg, func(g *graph.Graph, cfg core.Config) (any, error) {
			v, _, err := algorithms.WeightedSSSP(g, cfg, wsrc)
			return v, err
		}, algorithms.RefWeightedSSSP(wg, wsrc)},
		{"scc", g, func(g *graph.Graph, cfg core.Config) (any, error) {
			return algorithms.SCC(g, cfg)
		}, algorithms.RefSCC(g)},
	}
}

// orderTally observes every engine run a program makes (SCC makes
// several): their fingerprints concatenated, how many supersteps ran in
// slot order and how many bypass supersteps walked the list, and how
// often a next frontier crossed the enrolment list cap listCap upwards
// (a list, or none, followed by a dense frontier) and downwards.
type orderTally struct {
	fp             strings.Builder
	slot, list     int
	listCap        int64
	prev, up, down int64
}

func (o *orderTally) observer() core.Observer {
	return core.ObserverFuncs{
		SuperstepEnd: func(s int, st core.StepStats) {
			switch {
			case st.SlotOrder:
				o.slot++
			case s > 0 && st.Ran > 0:
				o.list++
			}
			switch next := st.NextFrontier; {
			case o.prev <= o.listCap && next > o.listCap:
				o.up++
			case o.prev > o.listCap && next <= o.listCap:
				o.down++
			}
			o.prev = st.NextFrontier
		},
		RunEnd: func(r core.Report, _ error) {
			o.fp.WriteString(r.Fingerprint())
			o.prev = 0
		},
	}
}

// TestFrontierOrderParity: a bypass superstep runs the same vertex set
// whether it walks the fill-ordered frontier list or scans the occupied
// inboxes in slot order, so every bypass program of internal/algorithms
// must compute its reference values and the list-only engine's
// fingerprints in every order, on the flat and compressed backends, on
// every inbox at one, two and four threads, with the barrier audits on.
// Past the enrolment list cap (1 024 entries here, the minSpan floor) a
// push superstep lists nothing and the next inbox's bits are the
// frontier: the slot and derived orders must cross that cap both ways.
func TestFrontierOrderParity(t *testing.T) {
	for _, oc := range orderCases(t) {
		cg, err := oc.g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		var wantFP string
		for _, order := range frontierOrders {
			t.Run(oc.name+"/"+order.name, func(t *testing.T) {
				if order.cut >= 0 {
					core.SetSlotOrderCut(t, order.cut)
				}
				listCap := int64(core.FrontierListCap(oc.g.N()))
				tally := orderTally{listCap: listCap}
				for _, backend := range []struct {
					name string
					g    *graph.Graph
				}{{"flat", oc.g}, {"compressed", cg}} {
					for _, cfg := range orderConfigs() {
						cell := fmt.Sprintf("%s/%s/%d", backend.name, cfg.VersionName(), cfg.Threads)
						cellTally := orderTally{listCap: listCap}
						cfg.Observers = []core.Observer{cellTally.observer(), tally.observer()}
						got, err := oc.run(backend.g, cfg)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if !reflect.DeepEqual(got, oc.ref) {
							t.Fatalf("%s: values differ from the reference", cell)
						}
						if wantFP == "" {
							wantFP = cellTally.fp.String()
						} else if fp := cellTally.fp.String(); fp != wantFP {
							t.Fatalf("%s: fingerprint differs from the list-order one:\ngot:\n%s\nwant:\n%s", cell, fp, wantFP)
						}
					}
				}
				// Each order must have run as named, and the derived cut must
				// have put some supersteps on each side.
				switch {
				case order.name == "list" && tally.slot > 0,
					order.name == "slot" && (tally.slot == 0 || tally.list > 0),
					order.name == "derived" && (tally.slot == 0 || tally.list == 0):
					t.Fatalf("%d supersteps ran in slot order and %d from the list", tally.slot, tally.list)
				case order.name != "list" && (tally.up == 0 || tally.down == 0):
					t.Fatalf("next frontiers crossed the list cap %d upwards %d times and downwards %d times, want both", listCap, tally.up, tally.down)
				}
				t.Logf("list cap %d: crossed upwards %d times, downwards %d times", listCap, tally.up, tally.down)
			})
		}
	}
}

// TestFrontierOrderCheckpointResume: a checkpoint taken at a barrier
// whose next superstep runs in slot order restores into a run that
// starts with that slot-order superstep and finishes with the
// uninterrupted run's values and per-superstep counts.
func TestFrontierOrderCheckpointResume(t *testing.T) {
	g := gen.RMATN(3000, 24000, 7, 1, true)
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	prog := algorithms.SSSPProgram(maxOutDegree(g))
	codec := pregelplus.Uint32Codec{}
	for _, backend := range []*graph.Graph{g, cg} {
		for _, cfg := range []core.Config{
			{Threads: 1, SelectionBypass: true, CheckInvariants: true},
			{Combiner: core.CombinerMutex, Threads: 4, SelectionBypass: true, CheckInvariants: true},
		} {
			saved := map[int]*bytes.Buffer{}
			e, err := core.New(backend, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetCheckpointer(core.Checkpointer[uint32, uint32]{
				Every:  1,
				Sink:   func(s int) (io.Writer, error) { saved[s] = &bytes.Buffer{}; return saved[s], nil },
				VCodec: codec, MCodec: codec,
			}); err != nil {
				t.Fatal(err)
			}
			full, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			dense := -1
			for k := 1; k < len(full.Steps) && dense < 0; k++ {
				if full.Steps[k].SlotOrder && saved[k] != nil {
					dense = k
				}
			}
			if dense < 0 {
				t.Fatalf("%s: no checkpointed barrier is followed by a slot-order superstep:\n%s", cfg.VersionName(), full.Table())
			}
			r, err := core.Restore(bytes.NewReader(saved[dense].Bytes()), backend, cfg, prog, codec, codec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Steps[0].SlotOrder {
				t.Fatalf("%s: the superstep resumed at barrier %d did not run in slot order", cfg.VersionName(), dense)
			}
			if !reflect.DeepEqual(r.ValuesDense(), e.ValuesDense()) {
				t.Fatalf("%s: resumed from barrier %d, values differ from the uninterrupted run", cfg.VersionName(), dense)
			}
			tail := strings.SplitN(full.Fingerprint(), "\n", dense+2)[dense+1]
			if got := strings.SplitN(rep.Fingerprint(), "\n", 2)[1]; got != tail {
				t.Fatalf("%s: resumed from barrier %d:\n%s\nwant the uninterrupted run's\n%s", cfg.VersionName(), dense, got, tail)
			}
		}
	}
}
