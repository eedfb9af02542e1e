package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host reference measurements. None of them is a claim about the system:
// they say how fast the host is running right now, so that a neighbour's
// minute is not read as a regression.
//
// The 2-vCPU guests this was sized on serve identical code at 35 volumes/s
// one minute and 27 — or 11 — the next, in stretches of one to ten minutes:
// ten runs of one commit then spread 20–50 % (interquartile range ÷ median),
// which no estimator inside a run removes. What does track those stretches
// is a fixed loop timed beside the traffic: probe logs 7 minutes × 4
// workloads of 2 s slices showed the raw rate of 16 s windows spreading
// 6 / 30 / 13 / 18 % and the same rate multiplied by the loop's slowdown
// 3 / 9 / 7 / 8 %. So every timing the benchmark bounds is reported in
// reference time: wall time ÷ hostFactor, with the factor measured right
// before and right after the interval it scales. The raw wall-clock figures
// are printed beside them.

// A calibration times four fixed loops — integer multiply chains on one
// thread and on two at once, LCG-indexed loads from a 4 MiB table (cache
// contention), a sum over 64 MiB (memory bandwidth) — three times each and
// keeps each loop's median. The loops slow by different amounts under the
// disturbances seen (a neighbour on the sibling hyperthreads moves the two
// memory loops 1.3–3× and the multiply chain 1.05–2×; both vCPUs landing on
// one core moves only the two-thread chain, 1.5–2×), and the served
// workloads sit between them; the equal-weight mean tracked all four about
// as well as any weighting tried.
type calibration struct {
	alu1, alu2, gather, stream float64 // ms, median of calibReps
}

// nominal is what a quiet sizing host reads. It only fixes the scale: on a
// host that reads these, reference time is wall time; on other hardware
// every bounded timing is rescaled by one common factor.
var nominal = calibration{alu1: 10.6, alu2: 11.0, gather: 15.8, stream: 14.6}

const calibReps = 3

var (
	calibTable  []uint32 // 4 MiB: spills L2, fits the last-level cache share of a quiet guest
	calibStream []uint32 // 64 MiB: 4× a 16 MiB last-level cache (see memcpyGBps)
	sink        uint32   // keeps the loops' results alive
)

// calibInit maps the loops' 68 MiB outside the Go heap: inside it they would
// sit in live_heap_mb and, by raising the collector's target, make the
// server under test collect a third less often than it does in production.
// It runs once, before the first calibration.
func calibInit() error {
	const table, stream = 1 << 20, memcpyBytes / 4
	mem, err := syscall.Mmap(-1, 0, 4*(table+stream), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the calibration arrays: %w", err)
	}
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), table+stream)
	calibTable, calibStream = words[:table], words[table:]
	for i := range calibTable {
		calibTable[i] = uint32(i) * 2654435761
	}
	for i := range calibStream { // written, so every page is backed by its own frame
		calibStream[i] = uint32(i) * 2654435761
	}
	return nil
}

func aluLoop() uint32 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 1<<23; i++ { // four independent chains keep the multiplier busy every cycle
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
	}
	return uint32(a + b + c + d)
}

func gatherLoop() uint32 {
	idx, sum := uint32(1), uint32(0)
	for i := 0; i < 1<<22; i++ {
		idx = idx*1664525 + 1013904223
		sum += calibTable[idx>>12]
	}
	return sum
}

func streamLoop() uint32 {
	var sum uint32
	for _, v := range calibStream {
		sum += v
	}
	return sum
}

// calibrate takes one calibration, about 160 ms on a quiet host. A garbage
// collection the traffic left running overlaps one repetition or two; the
// medians drop it.
func calibrate() calibration {
	timed := func(fn func()) float64 {
		reps := make([]float64, calibReps)
		for i := range reps {
			start := time.Now()
			fn()
			reps[i] = ms(time.Since(start))
		}
		return median(reps)
	}
	var c calibration
	c.alu1 = timed(func() { sink += aluLoop() })
	c.alu2 = timed(func() {
		var wg sync.WaitGroup
		var sums [2]uint32
		for k := range sums {
			wg.Add(1)
			go func() { defer wg.Done(); sums[k] = aluLoop() }()
		}
		wg.Wait()
		sink += sums[0] + sums[1]
	})
	c.gather = timed(func() { sink += gatherLoop() })
	c.stream = timed(func() { sink += streamLoop() })
	return c
}

// totalMs is what machine.calib_ms reports.
func (c calibration) totalMs() float64 { return c.alu1 + c.alu2 + c.gather + c.stream }

// factor is how many times slower than nominal the host ran the loops.
func (c calibration) factor() float64 {
	return (c.alu1/nominal.alu1 + c.alu2/nominal.alu2 + c.gather/nominal.gather + c.stream/nominal.stream) / 4
}

func (c calibration) String() string {
	return fmt.Sprintf("×%.3f (alu %.1f, two-thread alu %.1f, gather %.1f, stream %.1f ms)", c.factor(), c.alu1, c.alu2, c.gather, c.stream)
}

// hostFactor is the factor an interval between two calibrations is scaled
// by: the mean of the two.
func hostFactor(before, after calibration) float64 { return (before.factor() + after.factor()) / 2 }

// noisy reports whether the host moved enough during a window that a
// reviewer should read the workload's numbers as a neighbour's, not a
// regression's.
func noisy(drift float64) bool { return drift < 0.93 || drift > 1.07 }

const memcpyBytes = 64 << 20

// memcpyGBps is the median rate of a 64 MiB copy: 4× a 16 MiB last-level
// cache. The caller prints both sizes (llc), because a guest can report its
// whole socket's cache — 260 MiB on the sizing host, where the 5–6 GB/s this
// reads is still a memory rate, not a cache one.
func memcpyGBps() float64 {
	src, dst := make([]byte, memcpyBytes), make([]byte, memcpyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		copy(dst, src)
		rates = append(rates, memcpyBytes/time.Since(start).Seconds()/1e9)
	}
	runtime.KeepAlive(dst)
	return median(rates)
}

// llc returns the last-level cache size as the kernel words it ("16384K"),
// or "unknown" off Linux.
func llc() string {
	for _, idx := range []string{"index3", "index2"} {
		if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size"); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}
