package main

import (
	"io"
	"runtime"
	"sort"
	"time"
)

// span is one call into a layer, timed by the benchmark around the call.
type span struct {
	Name       string
	Dur        time.Duration
	AllocBytes uint64
	AllocObjs  uint64
	// Work is the span's unit count: states explored for modular.explore,
	// matrix entries streamed (Fox–Glynn right point × nnz) for
	// ctmc.reward.
	Work float64
}

// tracer records a span around every call into a layer. It collects
// garbage before each call, so one layer's garbage is not charged to the
// next. It is used from one goroutine at a time.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// do times fn as a span named name and returns the span's index. A nil
// tracer just calls fn.
func (t *tracer) do(name string, fn func() error) (int, error) {
	if t == nil {
		return -1, fn()
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	err := fn()
	dur := time.Since(start)
	after := readRuntime()
	t.spans = append(t.spans, span{
		Name:       name,
		Dur:        dur,
		AllocBytes: after.allocBytes - before.allocBytes,
		AllocObjs:  after.allocObjs - before.allocObjs,
	})
	return len(t.spans) - 1, err
}

// setWork records the unit count of span i.
func (t *tracer) setWork(i int, work float64) {
	if t != nil {
		t.spans[i].Work = work
	}
}

// byName groups the recorded spans by layer name.
func (t *tracer) byName() map[string][]span {
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// Per-layer metric names and the span each is read from.
var layerTimes = []struct{ metric, span string }{
	{"transform.build_ms", "transform.build"},
	{"modular.explore_ms", "modular.explore"},
	{"ctmc.reward_ms", "ctmc.reward"},
	{"ctmc.steady_ms", "ctmc.steady"},
	{"core.prepare_ms", "core.prepare"},
	{"core.solve_ms", "core.solve"},
	{"prismlang.parse_ms", "prismlang.parse"},
	{"csl.check_ms", "csl.check"},
	{"attacktree.compile_ms", "attacktree.compile"},
	{"store.journal_append_ms", "store.journal"},
}

// serviceLayerMetrics are filled by service-mix alone.
var serviceLayerMetrics = []struct{ name, unit string }{
	{"service.hit_p50_ms", "ms"},
	{"service.http_overhead_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.solves_per_miss", "ratio"},
	{"store.puts_per_miss", "ratio"},
	{"store.bytes", "bytes"},
}

// layerMetrics fills every per-layer metric derived from spans. A layer the
// workload never calls reports 0 (no calls), as do the service and store
// metrics outside service-mix.
func layerMetrics(rep *report, t *tracer) {
	groups := t.byName()
	medianOf := func(name string, f func(span) float64) float64 {
		ss := groups[name]
		if len(ss) == 0 {
			return 0
		}
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		sort.Float64s(vs)
		return vs[(len(vs)-1)/2]
	}
	durMs := func(s span) float64 { return ms(s.Dur) }
	allocMiB := func(s span) float64 { return float64(s.AllocBytes) / (1 << 20) }
	for _, lt := range layerTimes {
		rep.set(lt.metric, medianOf(lt.span, durMs), "ms")
	}
	rep.set("modular.explore_alloc_mb", medianOf("modular.explore", allocMiB), "MiB")
	rep.set("modular.explore_allocs", medianOf("modular.explore", func(s span) float64 { return float64(s.AllocObjs) }), "count")
	rep.set("ctmc.reward_alloc_mb", medianOf("ctmc.reward", allocMiB), "MiB")
	rep.set("ctmc.steady_alloc_mb", medianOf("ctmc.steady", allocMiB), "MiB")
	rate := func(name string, scale float64) float64 {
		var work, secs float64
		for _, s := range groups[name] {
			work += s.Work
			secs += s.Dur.Seconds()
		}
		if secs == 0 {
			return 0
		}
		return work / secs / scale
	}
	rep.set("modular.states_per_s", rate("modular.explore", 1), "states/s")
	rep.set("ctmc.spmv_gnnz_per_s", rate("ctmc.reward", 1e9), "Gnnz/s")
	for _, m := range serviceLayerMetrics {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
}

// summarize writes a per-layer table (calls and total time) to the
// run's log.
func (t *tracer) summarize(log io.Writer) {
	groups := t.byName()
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var total time.Duration
		for _, s := range groups[n] {
			total += s.Dur
		}
		logf(log, "span %-20s calls %6d  total %10.1f ms", n, len(groups[n]), ms(total))
	}
}
