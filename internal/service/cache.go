package service

import (
	"container/list"
	"strconv"
	"sync"

	"ipregel/internal/algorithms"
)

// cacheKey derives the canonical cache key for a job: the graph, the
// app table's identity of the program (algorithms.Identity), and the
// params that shape the response. The params have already been
// canonicalised (defaults applied, unused fields rejected, vertex lists
// sorted and deduplicated), so two requests that would compute the same
// values collapse to the same key regardless of field order,
// explicit-vs-defaulted values, or vertex list permutations. Limits are
// deliberately excluded: they bound execution, not the computed value
// (job.go).
func cacheKey(graphName, program string, p Params) string {
	b := append([]byte(graphName), 0)
	b = append(append(b, algorithms.Identity(program, p.program())...), 0)
	b = append(append(b, p.Direction...), 0)
	b = strconv.AppendInt(b, int64(p.Top), 10)
	for _, id := range p.Vertices {
		b = strconv.AppendUint(append(b, ' '), id, 10)
	}
	return string(b)
}

// resultCache is a mutex-guarded LRU over finished job results. Values
// are shared pointers; Result is immutable once published, so hits hand
// out the same object without copying.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	res *Result
}

// newResultCache builds a cache holding up to max entries; max < 0
// disables it (every get misses, every put is dropped).
func newResultCache(max int) *resultCache {
	if max < 0 {
		max = 0
	}
	return &resultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) put(key string, res *Result) {
	if c.max == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
