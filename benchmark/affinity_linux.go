//go:build linux

package main

import (
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// confineToOneCPU restarts the process on the first processor it may run
// on: it narrows the calling thread's affinity and executes its own binary
// again, so every thread of the new process and every child it starts
// inherit the one processor, and the Go runtime sizes itself for it
// (NumCPU and GOMAXPROCS are 1). It returns nil at once in a process that
// already has a single processor, and otherwise only with an error.
func confineToOneCPU() error {
	runtime.LockOSThread() // the affinity is the thread's, and execve keeps the calling thread's
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // room for 1024 processors
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return errno
	}
	first, allowed := -1, 0
	for i, word := range mask {
		if word != 0 && first < 0 {
			first = 64*i + bits.TrailingZeros64(word)
		}
		allowed += bits.OnesCount64(word)
	}
	if allowed <= 1 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	wide := mask
	mask = [16]uint64{}
	mask[first/64] = 1 << (first % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); errno != 0 {
		return errno
	}
	err = syscall.Exec(exe, os.Args, os.Environ()) // returns only when it failed
	mask = wide
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr)
	return err
}
