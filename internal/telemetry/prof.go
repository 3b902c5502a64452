package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts CPU profiling to cpuPath and schedules a heap
// profile to memPath; either path may be empty to skip that profile. The
// returned stop function finalizes both (it must run even on error paths,
// so callers defer it from a function that returns errors rather than
// calling log.Fatal past it) and is never nil.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return func() error { return nil }, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return func() error { return nil }, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return firstErr
			}
			runtime.GC() // flush recently freed objects so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); firstErr == nil {
				firstErr = err
			}
			if err := f.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return fmt.Errorf("telemetry: finalizing profiles: %w", firstErr)
		}
		return nil
	}, nil
}
