package core

import (
	"runtime"
	"sync/atomic"
)

// spinLock is the busy-waiting synchronisation of §6.1: a 4-byte
// compare-and-swap lock, matching the glibc spinlock the paper contrasts
// with the 40-byte pthread mutex. Combiner critical sections are a single
// compare-and-replace, so the reactive acquire pays off; the brief
// Gosched after a bounded spin keeps the scheduler live if the runtime is
// oversubscribed (the paper runs exactly one OpenMP thread per core and
// never parks).
type spinLock struct{ v atomic.Uint32 }

const spinTries = 64

// lock keeps the uncontended acquire — the common case by far: most
// mailboxes have one sender at a time — small enough to inline into the
// delivery loops; waiting happens out of line.
func (l *spinLock) lock() {
	if !l.v.CompareAndSwap(0, 1) {
		l.lockSlow()
	}
}

func (l *spinLock) lockSlow() {
	for {
		for i := 0; i < spinTries; i++ {
			// Test-and-test-and-set: spin on a plain load and attempt the
			// read-modify-write only when the lock looks free, keeping the
			// cache line shared while waiting.
			if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
				return
			}
		}
		runtime.Gosched()
	}
}

func (l *spinLock) unlock() {
	l.v.Store(0)
}

// spinLockBytes and mutexBytes are the per-lock sizes used by the
// memory-footprint accounting (§6.1 compares 40 vs 4 bytes in C; in Go a
// sync.Mutex is 8 bytes and the spinlock 4).
const (
	spinLockBytes = 4
	mutexBytes    = 8
)
