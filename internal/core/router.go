package core

import "unsafe"

// shardRouter is one worker's sender-side routing state under sharding:
// a direct-mapped combining cache per destination shard (generalizing
// the single senderCache of Config.SenderCombining) and the per-shard
// delivery counters behind StepStats.ShardMessages. Repeated sends to the same destination slot
// pre-combine worker-locally; a cache conflict evicts the old entry to
// the destination shard's mailbox, and drainShard flushes the rest at
// the barrier, so cross-shard traffic arrives as bulk combines instead
// of per-message CAS/lock acquisitions.
type shardRouter[M any] struct {
	combine CombineFunc[M]

	// dst/msg are the per-destination-shard caches, each routeEntries
	// wide; dst holds the cached LOCAL slot, -1 when the way is empty.
	dst [][]int32
	msg [][]M

	// sent counts deliveries routed per destination shard this superstep;
	// cross counts those whose destination differed from the sender's
	// shard; combined counts router-cache combines (folded into
	// StepStats.LocalCombines so message conservation stays exact).
	sent     []uint64
	cross    uint64
	combined uint64
}

// routeBits sizes each per-shard cache way set; same geometry as the
// sender-combining cache (sendercache.go).
const routeBits = 9

func newShardRouter[M any](combine CombineFunc[M], shards int) *shardRouter[M] {
	r := &shardRouter[M]{
		combine: combine,
		dst:     make([][]int32, shards),
		msg:     make([][]M, shards),
		sent:    make([]uint64, shards),
	}
	for d := range r.dst {
		ways := make([]int32, 1<<routeBits)
		for i := range ways {
			ways[i] = -1
		}
		r.dst[d] = ways
		r.msg[d] = make([]M, 1<<routeBits)
	}
	return r
}

// routeIndex hashes a local slot into a cache way (Fibonacci hashing,
// as in senderCache.index).
func routeIndex(local int) int {
	return int((uint64(local) * 0x9E3779B97F4A7C15) >> (64 - routeBits))
}

// add routes one delivery for (shard, local) through the cache, evicting
// a conflicting entry straight into mb (the destination shard's mailbox,
// which is concurrent-safe for every push combiner).
func (r *shardRouter[M]) add(shard, local int, m M, mb mailbox[M]) {
	ways, msgs := r.dst[shard], r.msg[shard]
	i := routeIndex(local)
	switch {
	case ways[i] == int32(local):
		r.combine(&msgs[i], m)
		r.combined++
	case ways[i] < 0:
		ways[i] = int32(local)
		msgs[i] = m
	default:
		// The way changes hands before the evicted entry is delivered: a
		// Combine that panics inside deliver dies holding that slot's
		// lock, and an entry left in the way would send the barrier
		// flush back to the same slot to wait on it forever.
		evicted, old := int(ways[i]), msgs[i]
		ways[i] = int32(local)
		msgs[i] = m
		mb.deliver(evicted, old)
	}
}

// drainShard flushes this worker's cached entries for one destination
// shard into its mailbox and empties the ways. drainRouters arranges a
// single flushing worker per destination shard, so the flush itself
// never contends.
func (r *shardRouter[M]) drainShard(shard int, mb mailbox[M]) {
	ways, msgs := r.dst[shard], r.msg[shard]
	for i, local := range ways {
		if local >= 0 {
			mb.deliver(int(local), msgs[i])
			ways[i] = -1
		}
	}
}

// resetSuperstep clears the per-superstep counters. The caches
// themselves are already empty: drainRouters runs every superstep, crash
// or no crash, before stats are gathered.
func (r *shardRouter[M]) resetSuperstep() {
	clear(r.sent)
	r.cross, r.combined = 0, 0
}

func (r *shardRouter[M]) footprintBytes() uint64 {
	var m M
	b := uint64(0)
	for d := range r.dst {
		b += uint64(len(r.dst[d]))*4 + uint64(len(r.msg[d]))*uint64(unsafe.Sizeof(m))
	}
	b += uint64(len(r.sent)) * 8
	return b
}
