package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, in output order, with their units. BENCHMARK.json
// declares the same set; the self-test checks the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"alloc_b_per_op", "B"},
}

// perLayer lists the per-layer metrics a traced run reports. A layer a
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, v := range []string{"plain", "faithful"} {
		for _, k := range playKinds {
			p := "play." + v + "." + k
			defs = append(defs,
				metricDef{p + ".n", "count"},
				metricDef{p + ".busy_ms", "ms"},
				metricDef{p + ".p50_us", "us"},
				metricDef{p + ".p99_us", "us"})
		}
	}
	return append(defs, []metricDef{
		{"core.check_ms", "ms"},
		{"core.plays", "count"},
		{"core.pruned", "count"},
		{"core.busy_ratio", "ratio"},
		{"scenario.compile_ms", "ms"},
		{"churn.build_ms", "ms"},
		{"rational.snapshot_ms", "ms"},
		{"rational.snapshot.n", "count"},
		{"fpss.central_ms", "ms"},
		{"fpss.central.n", "count"},
		{"churn.boundary_ms", "ms"},
		{"churn.boundary.n", "count"},
		{"live.dispatch.n", "count"},
		{"live.dispatch_p50_us", "us"},
		{"live.dispatch_p99_us", "us"},
		{"live.wire_share", "ratio"},
		{"live.rtt_p50_us", "us"},
		{"live.rtt_p99_us", "us"},
		{"live.queue_p99_us", "us"},
		{"loadgen.lag_p50_us", "us"},
		{"loadgen.lag_p99_us", "us"},
		{"livenet.msgs_per_advance", "count"},
		{"runtime.gc_n", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.coverage", "ratio"},
		{"trace.overhead", "ratio"},
	}...)
}()

type metricDef struct {
	name, unit string
}

// result is one workload run: operation counts for the verdict line,
// the metric values it measured (end-to-end and per-layer alike, keyed
// by name), and the workload-specific figures printed for people.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// note records a human-readable figure under the workload's own name
// for it (plays_per_s, serve_rps, advance_ms, ...).
func (r *result) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-22s %14.4f %s", name, v, unit))
}

// failRatio is failed or wrong operations over attempted ones.
func (r *result) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations collects timings and converts them for quantiles.
type durations []time.Duration

func (d durations) micros() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Microsecond)
	}
	return out
}

func (d durations) secondsList() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v.Seconds()
	}
	return out
}

func (d durations) sum() time.Duration {
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// costWindow measures CPU time, allocation and GC activity over a work
// phase.
type costWindow struct {
	start runtime.MemStats
	cpu   time.Duration
}

func openCost() *costWindow {
	w := &costWindow{}
	runtime.ReadMemStats(&w.start)
	w.cpu = cpuNow()
	return w
}

// costDelta is what one or more work phases cost the process.
type costDelta struct {
	cpu        time.Duration
	allocBytes uint64
	gcN        uint32
	gcPause    time.Duration
}

func (w *costWindow) close() costDelta {
	cpu := cpuNow() - w.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return costDelta{
		cpu:        cpu,
		allocBytes: end.TotalAlloc - w.start.TotalAlloc,
		gcN:        end.NumGC - w.start.NumGC,
		gcPause:    time.Duration(end.PauseTotalNs - w.start.PauseTotalNs),
	}
}

func (m *costDelta) add(o costDelta) {
	m.cpu += o.cpu
	m.allocBytes += o.allocBytes
	m.gcN += o.gcN
	m.gcPause += o.gcPause
}

// perOp sets the cost metrics of n operations.
func (r *result) perOp(m costDelta, n int) {
	r.set("cpu_us_per_op", float64(m.cpu)/float64(time.Microsecond)/float64(n))
	r.set("alloc_b_per_op", float64(m.allocBytes)/float64(n))
}

// setRuntime records the GC layer metrics for a work phase.
func (r *result) setRuntime(m costDelta) {
	r.set("runtime.gc_n", float64(m.gcN))
	r.set("runtime.gc_pause_ms", ms(m.gcPause))
}

// phaseTime is the wall and process CPU time of one phase.
type phaseTime struct{ wall, cpu time.Duration }

func timePhase(f func() error) (phaseTime, error) {
	c0, t0 := cpuNow(), time.Now()
	err := f()
	return phaseTime{time.Since(t0), cpuNow() - c0}, err
}

type phaseTimes []phaseTime

// medians returns the median wall and CPU time in seconds.
func (ps phaseTimes) medians() (wall, cpu float64) {
	var w, c durations
	for _, p := range ps {
		w, c = append(w, p.wall), append(c, p.cpu)
	}
	return median(w.secondsList()), median(c.secondsList())
}

// cpu returns the summed CPU time.
func (ps phaseTimes) cpu() time.Duration {
	var c time.Duration
	for _, p := range ps {
		c += p.cpu
	}
	return c
}

// cpuNow is the process's user plus system CPU time so far. On a
// shared host, CPU time leaves out the time the process's threads
// waited for a processor, which wall time includes.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
