package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is a process resource snapshot: CPU seconds (user+sys) and
// cumulative heap bytes allocated.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	bytes, _ := allocNow()
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: bytes}
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

// allocNow returns the cumulative heap bytes and objects allocated.
func allocNow() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// heapWatch samples the live heap (the marked heap of the latest GC)
// every few milliseconds and keeps its high-water mark.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// heapOf returns the live heap that fn leaves reachable: the live heap
// after fn minus before it, each after a full GC.
func heapOf(fn func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(s)
	before := s[0].Value.Uint64()
	fn()
	runtime.GC()
	metrics.Read(s)
	return s[0].Value.Uint64() - min(before, s[0].Value.Uint64())
}

// end stops the sampler and returns the peak live heap in bytes.
func (h *heapWatch) end() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// pass is the measurement of one timed repetition of a workload's unit
// of work (one daemon pass over the corpus, one suite run).
type pass struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	peak  uint64
}

// timePass runs fn with the process settled (a GC first, so every pass
// starts from the same heap) and measures its resource use. fn returns
// the wall time of the part that counts, which may be narrower than the
// call (a daemon pass counts from the first Next to the last verdict).
func timePass(fn func() (time.Duration, error)) (pass, error) {
	runtime.GC()
	h := watchHeap()
	u0 := snapshot()
	wall, err := fn()
	u1 := snapshot()
	return pass{wall: wall, cpu: u1.cpu - u0.cpu, alloc: u1.alloc - u0.alloc, peak: h.end()}, err
}

// passMetrics reports the CPU time of the passes the host ran at full
// speed (see fastest), and the median allocation and live-heap
// high-water mark of a pass.
func passMetrics(ps []pass, m map[string]float64) {
	var cpu, alloc, peak []float64
	for _, p := range ps {
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		peak = append(peak, float64(p.peak)/1e6)
	}
	m["cpu_s"] = fastest(cpu)
	m["alloc_mb"] = median(alloc)
	m["peak_heap_mb"] = median(peak)
}

// fastQ is the quantile of a run's time samples that the run reports.
// On a shared host the speed of a core changes in phases of a few
// seconds: the same pass takes 1.5 to 1.8 times as long in a slow
// phase, and its CPU time grows with its wall time, so the core itself
// is slower, not just busy elsewhere. The median of a run moves with the
// share of the run the host spent in slow phases; the fastest twentieth
// of many short samples is set by the program's work at the host's full
// speed. Every pass does the same work, so a slower program slows every
// pass, the fastest twentieth too.
const fastQ = 0.05

// fastest returns the fastQ-quantile of the time samples v.
func fastest(v []float64) float64 { return quantile(v, fastQ) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// latHist is a latency histogram with buckets 0.5% wide on a log scale
// from 1 µs up, so a run's latency record takes the same memory however
// many packets it sees (a growing sample slice would show up in the
// heap the benchmark measures).
type latHist struct {
	counts [4096]uint64
	n      uint64
}

const (
	histMinMS  = 1e-3
	histGrowth = 1.005
)

func (h *latHist) add(ms float64) {
	i := 0
	if ms > histMinMS {
		i = 1 + int(math.Log(ms/histMinMS)/math.Log(histGrowth))
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// merge adds o's samples to h.
func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ms, interpolated by rank inside
// the bucket that holds it (so within 0.5% of the true value).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return histMinMS
			}
			frac := float64(target-(cum-c)) / float64(c)
			return histMinMS * math.Pow(histGrowth, float64(i-1)+frac)
		}
	}
	return math.NaN()
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ns_per_pkt", "ns/pkt"},
		{"_allocs_per_pkt", "allocs/pkt"},
		{"_b_per_pkt", "B/pkt"},
		{"_ns_per_row", "ns/row"},
		{"_ns_per_line", "ns/line"},
		{"_b_per_line", "B/line"},
		{"_ns", "ns"},
		{"_ms", "ms"},
		{"_mb", "MB"},
		{"_s", "s"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "ratio"
}
