package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. On a shared host the same code runs tens of
// percent slower whenever a neighbour contends for the core, and that swing
// is larger than the regressions the benchmark must catch. A probe — a
// fixed amount of work unrelated to the repository — is timed immediately
// before and after every timed repeat, on as many goroutines as the repeat
// uses workers; a repeat's slowness is the mean of its two probe times over
// the reference host's, and throughput is reported in reference-host terms:
//
//	jobs_per_s = Σ jobs / Σ run_s × mean(slowness)
//
// A dependent arithmetic chain makes a poor probe: it is bound by latency,
// so it hardly notices a neighbour competing for execution ports, branch
// predictors and caches, while the simulator slows by half. The probe is
// therefore a small event-queue kernel — pop the minimum of a binary heap,
// push it back a pseudo-random step later — branchy and port-bound like
// the simulator. Its code, probeOps and probeRefMs are frozen: changing any
// of them rebases every calibrated number the benchmark has reported.
const (
	probeOps  = 100_000
	probeHeap = 4096 // 32 KiB of float64: the probe stays inside L1
)

// probeRefMs is the probe's time on the reference host (2 vCPUs,
// linux/amd64, go1.24) on one and on two goroutines: the first decile of
// about a thousand probes each, its speed when no neighbour interferes.
// Fleet runs use at most maxWorkers workers, so no other count needs one.
var probeRefMs = [...]float64{1: 9.3, 2: 10.3}

// probeSink keeps the probe's result live so the compiler cannot drop it.
var probeSink float64

//go:noinline
func probeKernel(h []float64, n int) float64 {
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for i := range h {
		h[i] = next()
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for k := 0; k < n; k++ {
		h[0] += next()
		siftDown(h, 0)
	}
	return h[0]
}

func siftDown(h []float64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			j = r
		}
		if h[i] <= h[j] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// probe runs the kernel on workers goroutines at once and returns its wall
// time in milliseconds.
func probe(workers int) float64 {
	workers = max(workers, 1)
	heaps := make([][]float64, workers)
	for g := range heaps {
		heaps[g] = make([]float64, probeHeap)
	}
	start := time.Now()
	if workers == 1 {
		probeSink += probeKernel(heaps[0], probeOps)
		return msSince(start)
	}
	out := make([]float64, workers)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = probeKernel(heaps[g], probeOps)
		}(g)
	}
	wg.Wait()
	ms := msSince(start)
	for _, v := range out {
		probeSink += v
	}
	return ms
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// resetPeakRSS returns freed heap pages to the OS and restarts the
// kernel's high-water mark of the process's resident set from the current
// RSS (Linux clear_refs "5"), so that the next peakRSSBytes reading is the
// peak of what ran in between. Where that is unavailable the mark keeps
// the process's peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reports the high-water resident set (VmHWM) since the last
// resetPeakRSS: the kernel's own peak accounting of every page touched.
// Where /proc is unavailable it falls back to the bytes the Go runtime
// obtained from the OS.
func peakRSSBytes() int64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// hostInfo identifies the machine and toolchain a run measured on.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
