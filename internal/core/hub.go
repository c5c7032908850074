package core

// Hub splitting (Config.HubSplit): on skewed graphs a single
// high-out-degree vertex serialises its worker (and under sharding its
// whole shard) for the length of one scatter loop. Instead of scattering
// inline, a push broadcast from a vertex whose out-degree exceeds the
// cut (default: the p99.9 of the out-degree distribution) is deferred
// into the worker's pending list and executed after the compute phase as
// chunked subtasks that any worker can claim from the shared cursor
// ("Strategies to Deal with an Extreme Form of Irregularity", arXiv
// 2010.01542). Deferral is invisible to the superstep's
// semantics: push deliveries always land in the NEXT buffer, so whether
// they happen during compute or just after changes nothing the current
// superstep can observe; the messages are counted by the chunks, like
// those of any other scatter.

// hubTask is one chunk of a deferred hub broadcast: pending entry
// (worker, idx), out-neighbour positions [lo, hi).
type hubTask struct {
	worker, idx int32
	lo, hi      int32
}

// hubChunkEdges is the subtask grain. Small enough that a p99.9 hub
// yields several chunks on test-sized graphs, large enough that the
// per-chunk claim cost is noise against the scatter work.
const hubChunkEdges = 1024

// hubScatterPhase chunks every worker's pending hub broadcasts and
// executes the chunks in parallel. Runs between the compute barrier and
// the router/cache drains: the pushes issued here flow through each
// executing worker's own routing state and are flushed by the ordinary
// barrier machinery.
func (e *Engine[V, M]) hubScatterPhase() {
	tasks := e.hubTaskBuf[:0]
	for wi, w := range e.workers {
		for i, slot := range w.hubSlots {
			deg := int32(e.g.OutDegree(int(slot) - e.shift))
			for lo := int32(0); lo < deg; lo += hubChunkEdges {
				hi := lo + hubChunkEdges
				if hi > deg {
					hi = deg
				}
				tasks = append(tasks, hubTask{int32(wi), int32(i), lo, hi})
			}
		}
	}
	e.hubTaskBuf = tasks
	e.parallelFor(len(tasks), func(w, k int) {
		t := tasks[k]
		src := e.workers[t.worker]
		slot := int(src.hubSlots[t.idx])
		msg := src.hubMsgs[t.idx]
		ctx := e.workers[w]
		// Cross-shard traffic is attributed to the hub's shard, not that
		// of whatever vertex the executing worker computed last.
		hubShard, _ := e.slotShard(slot)
		ctx.curShard = hubShard.id
		ctx.hubTasks++
		nbs := e.g.OutNeighborsWith(&ctx.nbuf, slot-e.shift)
		ctx.scatter(ctx.located(nbs[t.lo:t.hi]), e.shift, msg)
	})
}
