package core

import "fmt"

// The partition module maps the engine's global slot space onto shards,
// mirroring the addressing-module design of addressing.go: one small
// interface, several concrete versions selected by Config, each a pure
// data structure with no engine knowledge. A shard owns a contiguous
// local slot space [0, localSlots(s)); every global slot belongs to
// exactly one shard. Config.Shards == 1 selects the identity partition,
// whose locate is shard 0 / local == global.
type partitioner interface {
	// shards returns the number of shards (≥ 1).
	shards() int
	// locate maps a global slot to its owning shard and local slot.
	locate(slot int) (shard, local int)
	// globalOf is the inverse of locate.
	globalOf(shard, local int) int
	// localSlots returns the size of one shard's local slot space.
	localSlots(shard int) int
	// table returns the shard's local→global slot table, or nil when the
	// shard owns one contiguous global range starting at globalOf(shard,
	// 0) — the case in which the engine's loops translate by adding a
	// base instead of looking each slot up.
	table(shard int) []int32
	// overheadBytes is the partitioner's own heap footprint.
	overheadBytes() uint64
}

// Partition selects the partition module version.
type Partition int

const (
	// PartitionRange assigns each shard one contiguous global-slot range
	// of ~equal size: shard boundaries are cuts[s] = ceil(s·slots/shards),
	// so locate is two integer operations and a shard's slots stay
	// contiguous in the CSR — range partitioning preserves the locality
	// the flat engine already has, and per-shard edge-balanced cuts
	// remain computable from the degree prefix sums.
	PartitionRange Partition = iota
	// PartitionHash scatters slots across shards with a multiplicative
	// hash. Destroys CSR contiguity (edge-balanced scheduling degrades to
	// local-slot-count shares) but decorrelates shard load from vertex
	// ordering — the ablation counterpart, like AddressHashmap.
	PartitionHash
)

func (p Partition) String() string {
	switch p {
	case PartitionRange:
		return "range"
	case PartitionHash:
		return "hash"
	}
	return fmt.Sprintf("Partition(%d)", int(p))
}

// ParsePartition converts "range" or "hash" to a Partition.
func ParsePartition(s string) (Partition, error) {
	switch s {
	case "range":
		return PartitionRange, nil
	case "hash":
		return PartitionHash, nil
	}
	return 0, fmt.Errorf("core: unknown partition %q", s)
}

// newPartitioner builds the partitioner selected by cfg over a slot
// space of the given size.
func newPartitioner(cfg Config, slots int) (partitioner, error) {
	n := cfg.shardCount()
	if n == 1 {
		return singlePartitioner{n: slots}, nil
	}
	switch cfg.Partition {
	case PartitionRange:
		return newRangePartitioner(slots, n), nil
	case PartitionHash:
		return newHashPartitioner(slots, n), nil
	}
	return nil, fmt.Errorf("core: unknown partition %v", cfg.Partition)
}

// singlePartitioner is the identity: one shard, local slot == global
// slot.
type singlePartitioner struct{ n int }

func (p singlePartitioner) shards() int                { return 1 }
func (p singlePartitioner) locate(slot int) (int, int) { return 0, slot }
func (p singlePartitioner) globalOf(_, local int) int  { return local }
func (p singlePartitioner) localSlots(int) int         { return p.n }
func (p singlePartitioner) table(int) []int32          { return nil }
func (p singlePartitioner) overheadBytes() uint64      { return 0 }

// rangePartitioner: shard s owns the global range [cuts[s], cuts[s+1])
// with cuts[s] = ceil(s·n/t). That choice makes the owning shard of a
// slot computable without a search: slot ∈ [ceil(s·n/t), ceil((s+1)·n/t))
// iff floor(slot·t/n) = s, so locate is a multiply and a divide.
type rangePartitioner struct {
	n, t int
	cuts []int32 // len t+1; cuts[s] = ceil(s*n/t)
}

func newRangePartitioner(slots, shards int) *rangePartitioner {
	cuts := make([]int32, shards+1)
	for s := 0; s <= shards; s++ {
		cuts[s] = int32((s*slots + shards - 1) / shards)
	}
	return &rangePartitioner{n: slots, t: shards, cuts: cuts}
}

func (p *rangePartitioner) shards() int { return p.t }

func (p *rangePartitioner) locate(slot int) (int, int) {
	s := slot * p.t / p.n
	return s, slot - int(p.cuts[s])
}

func (p *rangePartitioner) globalOf(shard, local int) int {
	return int(p.cuts[shard]) + local
}

func (p *rangePartitioner) localSlots(shard int) int {
	return int(p.cuts[shard+1] - p.cuts[shard])
}

func (p *rangePartitioner) table(int) []int32 { return nil }

func (p *rangePartitioner) overheadBytes() uint64 {
	return uint64(len(p.cuts)) * 4
}

// hashPartitioner scatters slots with a Fibonacci multiplicative hash.
// The mapping is irregular, so both directions are precomputed tables:
// per-slot shard/local indices for locate, per-shard dense global lists
// for globalOf. O(slots) extra memory, O(1) translation — the same
// trade the hashmap addresser makes, kept honest by overheadBytes.
type hashPartitioner struct {
	t        int
	shardIdx []int32   // global slot -> shard
	localIdx []int32   // global slot -> local slot
	globals  [][]int32 // shard -> local slot -> global slot
}

func newHashPartitioner(slots, shards int) *hashPartitioner {
	p := &hashPartitioner{
		t:        shards,
		shardIdx: make([]int32, slots),
		localIdx: make([]int32, slots),
		globals:  make([][]int32, shards),
	}
	for slot := 0; slot < slots; slot++ {
		h := uint64(slot) * 0x9E3779B97F4A7C15
		s := int((h >> 33) % uint64(shards))
		p.shardIdx[slot] = int32(s)
		p.localIdx[slot] = int32(len(p.globals[s]))
		p.globals[s] = append(p.globals[s], int32(slot))
	}
	return p
}

func (p *hashPartitioner) shards() int { return p.t }

func (p *hashPartitioner) locate(slot int) (int, int) {
	return int(p.shardIdx[slot]), int(p.localIdx[slot])
}

func (p *hashPartitioner) globalOf(shard, local int) int {
	return int(p.globals[shard][local])
}

func (p *hashPartitioner) localSlots(shard int) int {
	return len(p.globals[shard])
}

func (p *hashPartitioner) table(shard int) []int32 { return p.globals[shard] }

func (p *hashPartitioner) overheadBytes() uint64 {
	b := uint64(len(p.shardIdx)+len(p.localIdx)) * 4
	for _, g := range p.globals {
		b += uint64(cap(g)) * 4
	}
	return b
}
