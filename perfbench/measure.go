package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineSample is a reading of the machine-wide CPU counters of
// /proc/stat, in clock ticks summed over all CPUs. Steal is time the
// hypervisor gave this machine's CPUs to someone else; iowait is idle time
// with disk I/O outstanding.
type machineSample struct{ total, iowait, steal uint64 }

// stealLimit is the largest steal share of the machine's CPU time a stretch
// of measurement may have and still count. Steal is the visible part of the
// other tenants' load; on a 2-CPU machine, goodput fell by about a quarter
// between stretches at 0.002 and at 0.03.
const stealLimit = 0.02

func readMachine() machineSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return machineSample{}
	}
	var s machineSample
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		s.total += n
		switch i {
		case 4:
			s.iowait = n
		case 7:
			s.steal = n
		}
	}
	return s
}

// machineLoad is what the machine did between two readings: the steal and
// iowait shares of its CPU time.
type machineLoad struct{ steal, iowait float64 }

func loadBetween(a, b machineSample) machineLoad {
	d := float64(b.total - a.total)
	return machineLoad{ratio(float64(b.steal-a.steal), d), ratio(float64(b.iowait-a.iowait), d)}
}

func (l machineLoad) disturbed() bool { return l.steal > stealLimit }

func disturbedMark(l machineLoad) string {
	if l.disturbed() {
		return " (disturbed: not scored)"
	}
	return ""
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCPU, busyCPU    float64 // seconds of GC CPU and of all non-idle CPU
	allocObjs, allocB uint64
	liveHeap          uint64 // bytes the latest GC kept
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{
		gcCPU: f(0), busyCPU: f(1) - f(2),
		allocObjs: u(3), allocB: u(4), liveHeap: u(5),
	}
}

// heapPeak samples the live heap (the bytes the latest GC kept) every few
// milliseconds and keeps the largest reading. Reading the heap between GCs
// instead would make the peak depend on where the last cycle fell.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Take returns the peak in MiB so far and starts a new one.
func (h *heapPeak) Take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// Stop ends sampling.
func (h *heapPeak) Stop() {
	close(h.stop)
	<-h.done
}

// quantile returns the q-quantile (0 < q ≤ 1) of xs by the nearest-rank
// method, sorting xs in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// iqm returns the interquartile mean of xs: the mean of what is left after
// dropping the lowest and the highest quarter. Like the median it ignores a
// few outliers, but it does not jump between the modes of a two-mode
// sample, such as episodes with and without a GC cycle.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	var sum float64
	for _, x := range s[cut : len(s)-cut] {
		sum += x
	}
	return sum / float64(len(s)-2*cut)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stopwatch runs fn n times and returns the median wall time in seconds.
// A forced GC before each run gives every run the same heap to start from.
func stopwatch(n int, fn func(i int) error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
