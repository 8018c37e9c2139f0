package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Percentiles are given in hundredths of a percent (per ten thousand)
// so that rank selection is exact integer arithmetic: p50 is 5000, p99
// is 9900.
const (
	p50 = 5000
	p99 = 9900
)

// rank is the 1-based nearest-rank position of percentile q (per ten
// thousand) in n sorted samples: the smallest r with r/n >= q/10000.
func rank(n, q int) int {
	r := (n*q + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank percentile
// q of n samples.
func beyond(n, q int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailSupported reports whether n samples put at least ten beyond
// percentile q, the least a reported tail percentile may rest on.
func tailSupported(n, q int) bool { return beyond(n, q) >= 10 }

// percentile returns the nearest-rank percentile q of sorted, or 0 for
// no samples.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// median sorts a copy of xs and returns its p50.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p50)
}

// window is one slice of a measured phase: the latencies (ms) of the
// answers completed in it, and its length in seconds. A serve phase is
// cut into one-second windows; on solve-table1 each repeat is a window.
type window struct {
	lat  []float64
	secs float64
}

// windowStats are the medians, over a phase's windows, of each window's
// throughput and latency percentiles. A median over windows is what the
// end-to-end metrics report, so that a burst of host noise in a few
// seconds of a run moves them little.
type windowStats struct {
	rate, p50, p99 float64
	// minBeyond is the fewest samples any window has beyond its p99.
	minBeyond int
}

func summarize(ws []window) windowStats {
	if len(ws) == 0 {
		return windowStats{}
	}
	rate := make([]float64, 0, len(ws))
	var q50, q99 []float64
	st := windowStats{minBeyond: -1}
	for _, w := range ws {
		rate = append(rate, float64(len(w.lat))/w.secs)
		if st.minBeyond < 0 || beyond(len(w.lat), p99) < st.minBeyond {
			st.minBeyond = beyond(len(w.lat), p99)
		}
		if len(w.lat) == 0 {
			continue
		}
		s := append([]float64(nil), w.lat...)
		sort.Float64s(s)
		q50 = append(q50, percentile(s, p50))
		q99 = append(q99, percentile(s, p99))
	}
	st.rate, st.p50, st.p99 = median(rate), median(q50), median(q99)
	return st
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSamples names the runtime/metrics the phases read.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// memCounters is one reading of the cumulative allocation and GC
// counters.
type memCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readMem() memCounters {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return memCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeap forces a collection and returns the bytes it left live.
// Probes run outside the timed sections; they are placed where the
// workload's live data peaks.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// memResult is what a phase cost the Go runtime: allocation and GC
// deltas, and the peak of its live-heap probes.
type memResult struct {
	allocBytes uint64
	gcCycles   uint64
	peakLive   uint64
}

// memDelta is the runtime cost since start; the caller adds the
// phase's live-heap probes.
func memDelta(start memCounters) memResult {
	c := readMem()
	return memResult{allocBytes: c.allocBytes - start.allocBytes, gcCycles: c.gcCycles - start.gcCycles}
}
