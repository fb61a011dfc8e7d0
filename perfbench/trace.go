package main

// The traced run's instrumentation. Spans are taken from outside the
// program: around each call the benchmark makes into a module's public
// functions, plus a wrapped rt.Listener and the gpu.Hooks it hands out.
// Spans stay in memory; per-layer self time is a span's duration minus
// the durations of the spans it caused.

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it within the same cell, or -1.
type span struct {
	Layer  string        `json:"layer"`
	Cell   string        `json:"cell"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Parent int           `json:"parent"`
}

// recorder collects the spans and deterministic counters of one traced
// pass. Cells finish on different goroutines, so appends are locked.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]int64
	l1Hits   int64
	l1Access int64
	putS     time.Duration // the cache's own time around its fills
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counters: map[string]int64{}}
}

// cell starts the span list of one unit of work (a figure cell, a sweep
// point, a request). A cell is used by one goroutine at a time.
func (r *recorder) cell(name string) *cellTrace {
	if r == nil {
		return nil
	}
	ct := &cellTrace{rec: r, name: name, counters: map[string]int64{}}
	ct.root = ct.begin("runner.cell")
	return ct
}

type cellTrace struct {
	rec      *recorder
	name     string
	spans    []span
	stack    []int
	root     func()
	counters map[string]int64
	l1Hits   int64
	l1Access int64
	putS     time.Duration
}

// begin opens a span under the innermost open one and returns its end.
// A nil cellTrace (the untraced pass) records nothing.
func (ct *cellTrace) begin(layer string) func() {
	if ct == nil {
		return func() {}
	}
	parent := -1
	if n := len(ct.stack); n > 0 {
		parent = ct.stack[n-1]
	}
	id := len(ct.spans)
	ct.spans = append(ct.spans, span{Layer: layer, Cell: ct.name, Start: time.Since(ct.rec.epoch), Dur: -1, Parent: parent})
	ct.stack = append(ct.stack, id)
	return func() { ct.end(id) }
}

// end closes span id and any span left open inside it (a launch that
// failed never reaches KernelEnd).
func (ct *cellTrace) end(id int) {
	now := time.Since(ct.rec.epoch)
	for len(ct.stack) > 0 {
		top := ct.stack[len(ct.stack)-1]
		ct.stack = ct.stack[:len(ct.stack)-1]
		ct.spans[top].Dur = now - ct.spans[top].Start
		if top == id {
			return
		}
	}
}

// child records a finished span of known duration under the innermost
// open span: the summed hook time of one launch, which is too many calls
// to keep one span each.
func (ct *cellTrace) child(layer string, d time.Duration) {
	parent := -1
	if n := len(ct.stack); n > 0 {
		parent = ct.stack[n-1]
	}
	ct.spans = append(ct.spans, span{Layer: layer, Cell: ct.name, Start: time.Since(ct.rec.epoch) - d, Dur: d, Parent: parent})
}

// timed runs fn inside a span.
func timed[T any](ct *cellTrace, layer string, fn func() T) T {
	end := ct.begin(layer)
	defer end()
	return fn()
}

// finish closes the cell and hands its spans to the recorder.
func (ct *cellTrace) finish() {
	if ct == nil {
		return
	}
	ct.root()
	r := ct.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range ct.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
	for k, v := range ct.counters {
		r.counters[k] += v
	}
	r.l1Hits += ct.l1Hits
	r.l1Access += ct.l1Access
	r.putS += ct.putS
}

// selfTimes returns each layer's summed self time in seconds.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Layer] += (s.Dur - child[i]).Seconds()
	}
	return out
}

// busy sums the cell spans, in seconds.
func (r *recorder) busy() float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.Layer == "runner.cell" {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// writeSpans saves the spans as JSON, one per line, sorted by start.
func (r *recorder) writeSpans(path string) error {
	sorted := append([]span(nil), r.spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedListener wraps the listener of one run (a profiler or a cycle
// counter): each launch becomes a "gpu" span whose hooks are timed as a
// "profiler.hooks" child, and the listener's own launch/end work is a
// "profiler" span.
type tracedListener struct {
	rt.Listener
	ct      *cellTrace
	hooks   *timedHooks
	gpuDone func()
}

func (l *tracedListener) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	end := l.ct.begin("profiler")
	h, err := l.Listener.KernelLaunch(info)
	end()
	l.hooks = nil
	l.gpuDone = l.ct.begin("gpu")
	if h == nil || err != nil {
		return h, err
	}
	l.hooks = &timedHooks{inner: h}
	return l.hooks, nil
}

func (l *tracedListener) KernelEnd(info *rt.LaunchInfo, res *gpu.LaunchResult) {
	if l.hooks != nil {
		l.ct.child("profiler.hooks", l.hooks.dur)
		l.ct.counters["profiler.hook_calls"] += l.hooks.calls
	}
	l.gpuDone()
	l.ct.counters["gpu.warp_instrs"] += res.WarpInstrs
	l.ct.counters["gpu.mshr_stalls"] += res.MSHRStalls
	l.ct.l1Hits += res.Cache.Hits
	l.ct.l1Access += res.Cache.Accesses
	end := l.ct.begin("profiler")
	l.Listener.KernelEnd(info, res)
	end()
}

// timedHooks times every hook call of one launch. The executor calls it
// from one goroutine (the parallel path replays buffered hooks in order
// on the launching goroutine), so plain fields suffice.
type timedHooks struct {
	inner gpu.Hooks
	dur   time.Duration
	calls int64
}

func (h *timedHooks) OnHook(w *gpu.WarpView, call *ir.Instr, args []gpu.LaneValues) error {
	t0 := time.Now()
	err := h.inner.OnHook(w, call, args)
	h.dur += time.Since(t0)
	h.calls++
	return err
}

// newContext builds a run's device and host context, counting the device
// and timing its creation (the 512 MiB global memory is allocated and
// cleared here). With a cell trace the listener is wrapped.
func newContext(ctx context.Context, ct *cellTrace, pool *runner.Pool, cfg gpu.ArchConfig, l rt.Listener) *rt.Context {
	dev := timed(ct, "gpu.device", func() *gpu.Device { return gpu.NewDevice(cfg, experiments.DeviceMemBytes) })
	if ct != nil {
		ct.counters["gpu.devices"]++
		l = &tracedListener{Listener: l, ct: ct}
	}
	c := rt.NewContext(dev, l)
	c.Options.Ctx = ctx
	c.Options.Pool = pool
	return c
}

// profile is the traced counterpart of the experiments layer's profiling
// cell: parse, instrument, run under a fresh profiler. It does the same
// calls app.Instrumented and the cell make, one span each.
func profile(ctx context.Context, ct *cellTrace, pool *runner.Pool, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profiler.Profiler, error) {
	m, err := timed2(ct, "irtext", app.Module)
	if err != nil {
		return nil, err
	}
	prog, err := timed2(ct, "instrument", func() (*instrument.Program, error) { return instrument.Instrument(m, opts) })
	if err != nil {
		return nil, err
	}
	p := profiler.New()
	c := newContext(ctx, ct, pool, cfg, p)
	end := ct.begin("rt.host")
	err = app.Run(c, prog, 1)
	end()
	if err != nil {
		return nil, err
	}
	for _, kp := range p.Kernels {
		mr, ms := kp.Trace.MemCoverage()
		br, bs := kp.Trace.BlocksCoverage()
		ct.counters["trace.records"] += mr + br
		ct.counters["trace.records_seen"] += ms + bs
	}
	return p, nil
}

// timed2 is timed for calls that also return an error.
func timed2[T any](ct *cellTrace, layer string, fn func() (T, error)) (T, error) {
	end := ct.begin(layer)
	defer end()
	return fn()
}
