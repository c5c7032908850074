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

	// Overlapped-delivery state (Config.OverlapDelivery; nil otherwise).
	// Cache evictions append to pend[d] instead of touching the mailbox;
	// a full batch is handed to shard d's drainer and applied while
	// compute is still running. earlyBatches counts those handoffs
	// (StepStats.EarlyDeliveredBatches).
	drainer      *shardDrainer[M]
	pend         []*shardBatch[M]
	earlyBatches uint64
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

// enableOverlap switches this router's eviction path to batched early
// delivery through d. Pending batches are allocated lazily on first
// eviction per destination.
func (r *shardRouter[M]) enableOverlap(d *shardDrainer[M]) {
	r.drainer = d
	r.pend = make([]*shardBatch[M], len(r.dst))
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
		if r.drainer != nil {
			r.evictOverlap(shard, ways[i], msgs[i])
		} else {
			mb.deliver(int(ways[i]), msgs[i])
		}
		ways[i] = int32(local)
		msgs[i] = m
	}
}

// evictOverlap appends one evicted entry to the pending batch for shard,
// submitting the batch to the shard's drainer when it fills. Only the
// drainer goroutine touches the mailbox, so early delivery never
// contends with other workers' evictions.
func (r *shardRouter[M]) evictOverlap(shard int, local int32, m M) {
	b := r.pend[shard]
	if b == nil {
		b = r.drainer.getBatch()
		r.pend[shard] = b
	}
	b.add(local, m)
	if b.full() {
		r.drainer.submit(shard, b)
		r.earlyBatches++
		r.pend[shard] = nil
	}
}

// drainShard flushes this worker's cached entries for one destination
// shard into its mailbox and empties the ways. drainRouters arranges a
// single drainer per destination shard, so the flush itself never
// contends.
func (r *shardRouter[M]) drainShard(shard int, mb mailbox[M]) {
	// Residual drain of a partial overlap batch: the drainers are already
	// quiesced and drainRouters runs one drainer per destination shard,
	// so delivering here directly keeps the single-writer property.
	if r.pend != nil {
		if b := r.pend[shard]; b != nil {
			for i, local := range b.dst {
				mb.deliver(int(local), b.msg[i])
			}
			r.drainer.recycle(b)
			r.pend[shard] = nil
		}
	}
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
	r.cross, r.combined, r.earlyBatches = 0, 0, 0
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
