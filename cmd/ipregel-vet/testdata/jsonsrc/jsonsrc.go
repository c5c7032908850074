// Package jsonsrc is the golden-test input for ipregel-vet's -json
// output: one live nakedatomic finding and one suppressed one, so the
// golden file pins the schema of both shapes (see main_test.go).
package jsonsrc

import "sync/atomic"

type counter struct {
	n uint64
}

func (c *counter) inc() { atomic.AddUint64(&c.n, 1) }

func audited(c *counter) uint64 {
	//ipregel:ignore nakedatomic read-only snapshot taken after shutdown
	return atomic.LoadUint64(&c.n)
}
