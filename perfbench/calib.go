package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's CPU speed drifts by tens of percent over minutes (see
// README.md, Timing in nominal seconds), so CPU time alone cannot compare
// runs made minutes apart. While it sets up and runs passes, the benchmark
// runs on one P (GOMAXPROCS 1), and a sampler goroutine on that P runs one
// unit of a fixed calibration kernel every samplePeriod, in between the
// jobs' own work. A phase's CPU time, less the sampler's, is converted to
// nominal seconds: the CPU time it would have taken at the speed where one
// kernel unit costs nominalUnitCPU. The kernel is the benchmark's own code,
// so no change to the repository moves it.

// nominalUnitCPU is about one kernel unit's CPU time on the 2-vCPU Xeon
// VM the benchmark was tuned on. It only scales the figure; any constant
// would do.
const nominalUnitCPU = 1150 * time.Microsecond

// samplePeriod is how often the sampler runs a unit: about 2% of the
// CPU, and hundreds of samples in a pass.
const samplePeriod = 50 * time.Millisecond

const (
	lruSets     = 256
	lruLines    = 4 * lruSets
	lruSteps    = 32768
	streamLen   = 1 << 20 // 8 MiB of uint64: streamed, not cached
	streamSteps = 1 << 17
	tableLen    = 1024
	mapKeys     = 1 << 14
	mapSteps    = 4096
)

// calibrator is the kernel's state. A unit does the three kinds of work
// the measured layers do, in fixed amounts: a 2-way LRU walk of a random
// line stream over a small array, as cache replay does (about half of a
// unit's time); a sequential read of a large array feeding updates to a
// small table, as replay's walk of a compiled trace does (about a third);
// and reads and writes of a map of fixed keys, as TRG construction does
// (the rest). On a shared 2-vCPU Xeon VM the speed of each part followed
// the passes' speed to a different degree (README.md, Timing in nominal
// seconds); the mix followed both the layout and the replay passes. It allocates
// nothing after newCalibrator, and holds about 0.5 MB on the Go heap.
type calibrator struct {
	ways   [2 * lruSets]int64
	buf    []byte   // mapped outside the Go heap, so it does not pace the collector
	stream []uint64 // buf as words
	pos    int
	table  [tableLen]uint32
	m      map[uint32]uint32
	x      uint64
	sum    uint64
}

func newCalibrator() (*calibrator, error) {
	buf, err := syscall.Mmap(-1, 0, 8*streamLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{buf: buf, stream: unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), streamLen), m: make(map[uint32]uint32, mapKeys), x: 0x9E3779B97F4A7C15}
	for i := range c.stream {
		c.stream[i] = c.next() & (tableLen*4 - 1)
	}
	for k := uint32(0); k < mapKeys; k++ {
		c.m[k] = k
	}
	return c, nil
}

// free unmaps the kernel's array; c must not be used after.
func (c *calibrator) free() {
	syscall.Munmap(c.buf)
	c.buf, c.stream = nil, nil
}

// next is a xorshift64 step.
func (c *calibrator) next() uint64 {
	x := c.x
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.x = x
	return x
}

// unit does one fixed unit of work.
func (c *calibrator) unit() {
	var sum uint64
	for i := 0; i < lruSteps; i++ {
		line := int64(c.next() & (lruLines - 1))
		set := c.ways[2*(line%lruSets):][:2]
		switch line {
		case set[0]:
		case set[1]:
			set[0], set[1] = line, set[0]
		default:
			sum++
			set[0], set[1] = line, set[0]
		}
	}
	for i := 0; i < streamSteps; i++ {
		e := c.stream[c.pos]
		c.pos = (c.pos + 1) % streamLen
		j := e % tableLen
		if uint64(c.table[j]) == e {
			sum++
		}
		c.table[j] = uint32(e)
	}
	for i := 0; i < mapSteps; i++ {
		k := uint32(c.next()>>32) % mapKeys
		w := c.m[k] ^ uint32(sum)
		c.m[k] = w
		sum += uint64(w)
	}
	c.sum += sum
}

// calibSample counts kernel units and their CPU time.
type calibSample struct {
	units int
	cpu   time.Duration
}

// sub is the work done between an earlier sample e and s.
func (s calibSample) sub(e calibSample) calibSample {
	return calibSample{units: s.units - e.units, cpu: s.cpu - e.cpu}
}

// nominal converts cpu, spent in the same phase as s, to nominal seconds.
func (s calibSample) nominal(cpu time.Duration) float64 {
	if s.units == 0 || s.cpu <= 0 {
		return cpu.Seconds()
	}
	perUnit := s.cpu.Seconds() / float64(s.units)
	return cpu.Seconds() * nominalUnitCPU.Seconds() / perUnit
}

// sampler runs the kernel in the background. It must run with GOMAXPROCS
// 1: a unit's CPU time is the process's CPU time across it, which is the
// unit's own only when nothing else runs meanwhile, and a unit then
// interrupts the jobs on the CPU they run on, not another one.
type sampler struct {
	units, cpu atomic.Int64
	stop, done chan struct{}
}

func startSampler(c *calibrator) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			cpu0 := cpuTime()
			c.unit()
			s.cpu.Add(int64(cpuTime() - cpu0))
			s.units.Add(1)
		}
	}()
	return s
}

// mark returns the totals so far.
func (s *sampler) mark() calibSample {
	return calibSample{units: int(s.units.Load()), cpu: time.Duration(s.cpu.Load())}
}

// close stops the sampler and waits for it to end.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// singleP runs f with GOMAXPROCS 1 and the sampler running, and restores
// GOMAXPROCS after.
func singleP(c *calibrator, f func(*sampler) error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startSampler(c)
	defer s.close()
	return f(s)
}
