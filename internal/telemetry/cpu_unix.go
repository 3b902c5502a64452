//go:build unix

package telemetry

import "syscall"

// CPUSeconds returns the process's cumulative CPU time, user plus system,
// in seconds, from getrusage(RUSAGE_SELF). The kernel keeps it current at
// every call, so deltas around a region of code attribute its CPU time
// correctly; the runtime's own CPU-class metrics are refreshed only at
// garbage collection and are not fit for that.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
