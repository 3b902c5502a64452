//go:build !unix

package telemetry

// CPUSeconds reports 0 on platforms without getrusage: CPU time is not
// measured there.
func CPUSeconds() float64 { return 0 }
