package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// runRecord describes the host and the run, so a noisy result can be
// told apart from a slow one.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// StealPct is the share of all CPU time the host hypervisor stole
	// during the run, from /proc/stat (-1 where unavailable).
	StealPct float64 `json:"steal_pct"`
	// BatchSamples is the number of batch latencies behind batch_p50_ms
	// and batch_p90_ms.
	BatchSamples int `json:"batch_samples"`
	// LateP50MS, LateP90MS and LateMaxMS describe how far behind its
	// schedule the open-loop generator sent batches (service-mixed only).
	LateP50MS float64 `json:"late_p50_ms,omitempty"`
	LateP90MS float64 `json:"late_p90_ms,omitempty"`
	LateMaxMS float64 `json:"late_max_ms,omitempty"`
}

func newRunRecord(o options) runRecord {
	return runRecord{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StealPct:   -1,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies
// and the steal column.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest columns are already counted in user/nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the steal share between start and stop.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

// pct returns the steal share since start in percent, or -1.
func (m stealMeter) pct() float64 {
	t, s, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// heapPeak samples the live heap (as marked by the most recent GC) while
// it runs. Live heap is steadier than RSS, which also moves with
// allocator and scavenger timing.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapPeak collects garbage first, so the baseline is what the
// timed phase starts with, then polls until Stop.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(liveHeap())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(liveHeap())
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak in MB since the previous take (or the start) and
// opens a new window.
func (h *heapPeak) take() float64 {
	now := liveHeap()
	h.observe(now)
	return float64(h.peak.Swap(now)) / (1 << 20)
}

// Stop ends sampling.
func (h *heapPeak) Stop() {
	close(h.stop)
	<-h.done
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
