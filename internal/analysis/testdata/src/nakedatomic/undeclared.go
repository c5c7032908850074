package nakedatomic

import "sync/atomic"

// engine's fields are shared by concurrent workers but declared as plain
// integers and an unmarked slice. Nothing would check their other
// accesses, so each sync/atomic call on one is the finding: declare the
// scalars as typed atomics, mark the slice.
type engine struct {
	ticks uint64
	done  uint64
	flags []uint32

	// hits is a typed atomic: the compiler rejects its plain access.
	hits atomic.Uint64

	// steps is never accessed atomically.
	steps int
}

func (e *engine) bump() { atomic.AddUint64(&e.ticks, 1) } // want `sync/atomic call on field ticks: declare it a typed atomic`

func (e *engine) flag(i int) { atomic.StoreUint32(&e.flags[i], 1) } // want `sync/atomic call on an element of flags, which is not marked //ipregel:atomic`

func (e *engine) finish() { atomic.StoreUint64(&e.done, 1) } // want `sync/atomic call on field done`

// report and resetAll access the same fields plainly. Their findings are
// the atomic calls above: the discipline is declared, never inferred.
func report(e *engine) uint64 {
	return e.ticks
}

func resetAll(e *engine) {
	e.ticks = 0
	for i := range e.flags {
		e.flags[i] = 0
	}
	e.flags = make([]uint32, 8)
	e.steps++
	e.hits.Add(1)
	e.hits.Store(0)
}

func snapshot(e *engine) uint64 {
	//ipregel:ignore nakedatomic read-only snapshot taken after Run returned
	return atomic.LoadUint64(&e.done)
}

// A marked field reached through an embedded struct is the same field.
type inner struct {
	//ipregel:atomic
	words []uint64
}

type outer struct{ inner }

func (o *outer) promoted(i int) uint64 {
	return o.words[i] // want `element of words accessed without sync/atomic`
}

func (o *outer) promotedOK(i int) uint64 {
	return atomic.LoadUint64(&o.words[i])
}
