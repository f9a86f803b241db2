package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p99 is the nearest-rank 99th percentile of xs (0 for none). With
// fewer than 100 samples it is the largest.
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the process's cumulative Go heap allocation in bytes.
func heapAllocated() uint64 {
	metrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// measure times fn after collecting the previous measurement's garbage,
// so one run does not pay for another's heap. It returns the wall time
// and the bytes fn allocated.
func measure(fn func()) (time.Duration, uint64) {
	runtime.GC()
	a0 := heapAllocated()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return d, heapAllocated() - a0
}

// medianOf runs fn n times and returns the median duration in seconds.
func medianOf(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// splitmix64 derives well-spread values from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
