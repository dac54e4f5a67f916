package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"opportune/internal/obs"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    workload.Scale
	// setups is how many times a run builds its starting state; setup_s
	// is the median.
	setups int
	// traceOut, when set in a traced run, receives the benchmark's spans
	// as JSON.
	traceOut string
}

// opCount is the attempted/failed tally of one operation type.
type opCount struct{ Attempted, Failed int }

// result is what one workload run measured. Latencies are milliseconds.
type result struct {
	setupS []float64

	primary []float64 // the workload's headline operation
	// tail_ms is the tailQ quantile of tail, or of primary when tail is
	// nil: the highest of p95 and p90 that leaves at least ten samples
	// beyond it in a run.
	tail      []float64
	tailQ     float64
	secondary []float64 // its second operation
	opsDone   float64   // numerator of ops_per_s
	busyS     float64   // wall seconds the operations took
	rounds    int

	simS     float64   // simulated seconds summed over all rounds
	viewMB   []float64 // MB held by retained views at the end of each round
	heapPeak uint64

	ops      map[string]*opCount
	failures map[string]int // "op query: reason" → count
	checkErr []string

	// traced runs only
	layers map[string]float64
}

func newResult() *result {
	return &result{tailQ: 0.95, ops: make(map[string]*opCount), failures: make(map[string]int)}
}

// attempt counts one operation of type op on the named input. An operation
// fails when the program returns an error or its answer fails the check;
// attempt reports whether it failed.
func (r *result) attempt(op, input string, err error) bool {
	c := r.ops[op]
	if c == nil {
		c = &opCount{}
		r.ops[op] = c
	}
	c.Attempted++
	if err == nil {
		return false
	}
	c.Failed++
	r.failures[fmt.Sprintf("%s %s: %v", op, input, err)]++
	return true
}

// fail records an answer the benchmark could not check; the run then
// reports correct=false.
func (r *result) fail(format string, args ...any) {
	if len(r.checkErr) < 20 {
		r.checkErr = append(r.checkErr, fmt.Sprintf(format, args...))
	}
}

func (r *result) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetups builds a workload's starting state o.setups times, recording
// each build's duration, and returns the last build.
func timeSetups[T any](o options, res *result, build func() (T, error)) (T, error) {
	var last T
	for i := 0; i < max(o.setups, 1); i++ {
		runtime.GC()
		t := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
		last = v
	}
	return last, nil
}

// newSession builds a session at the run's scale.
func newSession(o options) (*session.Session, error) {
	return workload.NewSession(o.scale)
}

// heapSampler tracks the peak live heap while a measured phase runs: the
// bytes the garbage collector marked live at the end of each cycle. Unlike
// heap bytes in use, it does not depend on where a sample falls in the
// collector's cycle.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeCounters is a snapshot of the Go runtime's cumulative GC and
// allocation counters.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// measure brackets a workload's measured phase: it collects garbage left
// by set-up, then samples the heap and the runtime counters until the
// returned stop function runs.
func measure(res *result) (stop func()) {
	runtime.GC()
	rt0 := readRuntime()
	h := startHeapSampler()
	return func() {
		res.heapPeak = h.Stop()
		rt1 := readRuntime()
		if res.layers != nil {
			n := float64(max(res.rounds, 1))
			if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
				res.layers["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / cpu
			}
			res.layers["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / 1e6 / n
			res.layers["runtime.gc_cycles"] = float64(rt1.gcCycles-rt0.gcCycles) / n
		}
	}
}

// tracer records the benchmark's own spans around each public call it
// makes. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one finished benchmark span. Times are nanoseconds since the
// tracer started; Parent is 0 for a root; Req groups the spans of one
// operation.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open benchmark span.
type span struct {
	t      *tracer
	id     int
	parent int
	req    int64
	name   string
	start  time.Time
}

// start opens a span; parent may be nil.
func (t *tracer) start(name string, req int64, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Req: req, Name: name})
	t.mu.Unlock()
	sp := &span{t: t, id: id, req: req, name: name, start: time.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	return sp
}

// end closes the span.
func (sp *span) end() {
	if sp == nil {
		return
	}
	now := time.Now()
	t := sp.t
	t.mu.Lock()
	t.spans[sp.id-1] = spanRec{
		ID: sp.id, Parent: sp.parent, Req: sp.req, Name: sp.name,
		Start: sp.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
	}
	t.mu.Unlock()
}

// durations returns the duration in milliseconds of every finished span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// traceRun is a traced run's instruments: the program's metrics registry,
// sized so that no root span of the run is dropped, its state before the
// measured phase, and the benchmark's own spans. All are nil in a plain
// run.
type traceRun struct {
	reg    *obs.Registry
	before obs.Snapshot
	tr     *tracer
}

func startTrace(o options, res *result) traceRun {
	if !o.trace {
		return traceRun{}
	}
	reg := obs.NewRegistry()
	reg.MaxSpans = 1 << 22
	res.layers = make(map[string]float64)
	return traceRun{reg: reg, before: reg.Snapshot(), tr: newTracer()}
}

// finish derives the per-layer metrics of a traced run, adds the medians
// the workload measured itself, and writes the benchmark's spans.
func (t traceRun) finish(o options, res *result, medians map[string][]float64) error {
	if t.reg == nil {
		return nil
	}
	if err := programLayers(t.reg, t.before, res.rounds, res.layers); err != nil {
		return err
	}
	for name, xs := range medians {
		res.layers[name] = median(xs)
	}
	res.layers["trace.p50_ms"] = median(res.primary)
	return t.tr.write(o.traceOut)
}
