//go:build !linux

package main

import (
	"fmt"
	"runtime"
)

// confineToOneCPU is the Linux-only restart on one processor
// (affinity_linux.go); elsewhere the workload runs where the system puts it.
func confineToOneCPU() error {
	return fmt.Errorf("no processor affinity on %s", runtime.GOOS)
}
