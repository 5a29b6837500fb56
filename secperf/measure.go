package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeCounters are the Go runtime figures the benchmark reads.
type runtimeCounters struct {
	gcCycles   uint64
	gcForced   uint64
	gcCPU      float64 // seconds
	allocBytes uint64
	allocObjs  uint64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/cycles/forced:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var c runtimeCounters
	c.gcCycles, c.gcForced = u(0), u(1)
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[2].Value.Float64()
	}
	c.allocBytes, c.allocObjs = u(3), u(4)
	return c
}

// phase measures one timed phase: the latency of every completed
// analysis, the phase's wall and process CPU time, and the runtime's
// collector work. It is safe for concurrent use.
type phase struct {
	start time.Time
	cpu0  time.Duration
	rt    runtimeCounters

	mu   sync.Mutex
	lats []time.Duration

	wall   time.Duration
	cpu    time.Duration
	gcCPU  float64
	gcAuto uint64
}

func startPhase() *phase {
	return &phase{start: time.Now(), cpu0: cpuTime(), rt: readRuntime()}
}

// add records an analysis that took lat.
func (p *phase) add(lat time.Duration) {
	p.mu.Lock()
	p.lats = append(p.lats, lat)
	p.mu.Unlock()
}

func (p *phase) latencies() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.lats...)
}

func (p *phase) elapsed() time.Duration { return time.Since(p.start) }

func (p *phase) stop() {
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - p.cpu0
	rt := readRuntime()
	p.gcCPU = rt.gcCPU - p.rt.gcCPU
	p.gcAuto = (rt.gcCycles - p.rt.gcCycles) - (rt.gcForced - p.rt.gcForced)
}

// endToEnd fills the end-to-end metrics every workload reports. Throughput
// and CPU time per analysis are totals over the whole timed phase, not
// medians over windows: a window of a few hundred requests costs what the
// requests it happens to hold cost. When no analysis completed it records a failed check and returns false:
// the workload then reports its attempts and failures and stops there.
func endToEnd(rep *report, setup time.Duration, ph *phase) (bool, error) {
	lat := ph.latencies()
	if len(lat) == 0 {
		rep.checkf("none of %d analyses completed", rep.Attempted)
		return false, nil
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return false, err
	}
	n := float64(len(lat))
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("analyses_per_s", n/ph.wall.Seconds(), "1/s")
	rep.set("latency_p50_ms", ms(percentile(lat, 50)), "ms")
	rep.set("latency_p99_ms", ms(percentile(lat, 99)), "ms")
	rep.set("cpu_ms_per_analysis", ms(ph.cpu)/n, "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	return true, nil
}

// runtimeLayer fills the Go runtime's per-layer metrics from an untraced
// phase.
func runtimeLayer(rep *report, ph *phase) {
	n := float64(len(ph.latencies()))
	rep.set("runtime.gc_cpu_ms_per_analysis", ph.gcCPU*1000/n, "ms")
	rep.set("runtime.gc_cycles_per_analysis", float64(ph.gcAuto)/n, "count")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the 50th nearest-rank percentile.
func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// medianSetup runs set-up n times and returns the last result with the
// median duration. Each earlier result is handed to release (when not nil)
// and collected before the next set-up starts, so set-ups do not pay for
// each other's garbage.
func medianSetup[T any](n int, setup func() (T, time.Duration, error), release func(T) error) (T, time.Duration, error) {
	var (
		last T
		ds   []time.Duration
	)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			if err := release(last); err != nil {
				return last, 0, err
			}
		}
		var zero T
		last = zero
		runtime.GC()
		v, d, err := setup()
		if err != nil {
			return zero, 0, err
		}
		last = v
		ds = append(ds, d)
	}
	return last, median(ds), nil
}

// relClose reports |a-b| <= tol * max(|a|, |b|).
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// logf writes one diagnostic line to the run's log (standard error).
func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "secperf: "+format+"\n", args...)
}
