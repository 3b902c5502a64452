package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestNominalScalesByKernelSpeed(t *testing.T) {
	for _, c := range []struct {
		s    calibSample
		cpu  time.Duration
		want float64
	}{
		// The kernel ran at the nominal speed: nominal = CPU seconds.
		{calibSample{units: 4, cpu: 4 * nominalUnitCPU}, 3 * time.Second, 3},
		// The host ran at half speed: the job's 3 s count as 1.5.
		{calibSample{units: 4, cpu: 8 * nominalUnitCPU}, 3 * time.Second, 1.5},
		// No kernel sample: CPU time unchanged.
		{calibSample{}, 3 * time.Second, 3},
	} {
		if got := c.s.nominal(c.cpu); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%+v.nominal(%v) = %v, want %v", c.s, c.cpu, got, c.want)
		}
	}
}

func TestSamplerRunsOnOneP(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.free()
	procs := runtime.GOMAXPROCS(0)
	var during int
	var got calibSample
	err = singleP(c, func(sm *sampler) error {
		during = runtime.GOMAXPROCS(0)
		m0 := sm.mark()
		busy := 0 // busy, as a job is, so the sampler must interrupt it
		for end := time.Now().Add(6 * samplePeriod); time.Now().Before(end); {
			busy++
		}
		got = sm.mark().sub(m0)
		_ = busy
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if during != 1 || runtime.GOMAXPROCS(0) != procs {
		t.Errorf("GOMAXPROCS %d while sampling and %d after, want 1 and %d", during, runtime.GOMAXPROCS(0), procs)
	}
	if got.units < 2 || got.cpu <= 0 {
		t.Errorf("sampler ran %d units in %v over %v of busy work, want several", got.units, got.cpu, 6*samplePeriod)
	}
}
