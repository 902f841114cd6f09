package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. A p99 over fewer than 1,000 samples would be set by a
// handful of outliers, so the tail falls back to the highest
// percentile that still has this many samples beyond it.
const minBeyond = 10

// quantile is one reported order statistic: the value, the percentile
// it actually represents and how many samples it was taken over.
type quantile struct {
	Value float64 `json:"value"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
}

// nearestRank returns the 1-based nearest-rank index of percentile p
// over n samples: the smallest rank whose share of samples is >= p.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	s := sorted(xs)
	r := nearestRank(len(s), 50)
	return quantile{Value: s[r-1], Pct: 50, N: len(s)}
}

// tail is the nearest-rank p-th percentile when at least minBeyond
// samples lie above it. Otherwise it is the highest percentile that
// has minBeyond samples above it, and never below the median: with 20
// samples a requested p90 reports the median, and Pct says so.
func tail(xs []float64, p float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	s := sorted(xs)
	n := len(s)
	r := nearestRank(n, p)
	if n-r < minBeyond {
		r = n - minBeyond
		if m := nearestRank(n, 50); r < m {
			r = m
		}
	}
	return quantile{Value: s[r-1], Pct: 100 * float64(r) / float64(n), N: n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Runtime statistics read around the timed window. Daemon and load
// generator share the process, so these cover both.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtLiveHeap   = "/memory/classes/heap/objects:bytes"
)

// rtSnapshot is one read of the runtime statistics the benchmark
// reports.
type rtSnapshot struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	liveHeap   uint64
	pauses     *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: rtAllocBytes}, {Name: rtGCCycles}, {Name: rtGCPauses},
		{Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtLiveHeap},
	}
	metrics.Read(s)
	return rtSnapshot{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauses:     s[2].Value.Float64Histogram(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		liveHeap:   s[5].Value.Uint64(),
	}
}

// gcPauses expands the pause histogram delta between two snapshots
// into one sample per pause, each at its bucket's upper bound (the
// lower bound for the open last bucket), in milliseconds.
func gcPauses(before, after rtSnapshot) []float64 {
	var out []float64
	b := after.pauses.Buckets
	for i, c := range after.pauses.Counts {
		d := c - before.pauses.Counts[i]
		v := b[i+1]
		if math.IsInf(v, 1) {
			v = b[i]
		}
		for ; d > 0; d-- {
			out = append(out, v*1e3)
		}
	}
	return out
}

// allocSampler reads the cumulative heap allocation counter; spans use
// it to attribute allocated bytes to a layer.
type allocSampler struct{ s []metrics.Sample }

func newAllocSampler() *allocSampler {
	return &allocSampler{s: []metrics.Sample{{Name: rtAllocBytes}}}
}

func (a *allocSampler) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// cpuStat reads the machine's aggregate CPU time from /proc/stat: all
// jiffies and the stolen ones, which a hypervisor gave to other guests.
// Latencies on a host with steal track it. Zeros when unavailable.
func cpuStat() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, err = strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, 0
	}
	return total, steal
}

// stealShare is the share of CPU time stolen between two cpuStat reads.
func stealShare(total0, steal0, total1, steal1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// processCPU is the user plus system CPU time this process has used,
// in seconds: daemon and load generator together. Unlike latency, it
// does not count time the hypervisor stole from the guest.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
