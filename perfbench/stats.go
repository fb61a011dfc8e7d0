package main

import (
	"math"
	"sort"
)

// median of xs, the mean of the middle two for an even count (0 for
// none). Passes per run vary with the machine's speed, and a
// nearest-rank median of an even count would lean to the fast side for
// times and to the slow side for rates.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// pooledOps is the number of operations from which a pass has a tail of
// its own: with at least that many in every pass, percentiles are taken
// over the pooled operations of the run.
const pooledOps = 100

// latencyPercentile is the p-th percentile of operation latency over a
// run's timed passes (one slice per pass). A serve-mix pass has 1000
// requests; pooled, p99 has the slowest 1% of every pass beyond it
// instead of resting on the 10th-slowest request of each. eval-cold and
// bypass-sweep passes have 3 operations, where a pooled p99 would be the
// single slowest operation of the run; there it is the median over
// passes of each pass's own percentile.
func latencyPercentile(lats [][]float64, p float64) float64 {
	var pooled, per []float64
	few := false
	for _, l := range lats {
		pooled = append(pooled, l...)
		per = append(per, percentile(l, p))
		few = few || len(l) < pooledOps
	}
	if few {
		return median(per)
	}
	return percentile(pooled, p)
}

// layerMetrics turns the traced passes into the per-layer metrics: each
// value is the median over the traced passes. The serve latencies come
// from the untraced passes (untraced[i] ran just before recs[i]), which
// send every request through the serve handler without spans. Layers a
// workload does not reach report 0.
func layerMetrics(recs []*recorder, untraced []passResult, wall, tracedWall []float64) map[string]metric {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for i, r := range recs {
		self := r.selfTimes()
		c := r.counters
		gpuSelf := self["gpu"]
		add("gpu.warp_instrs", float64(c["gpu.warp_instrs"]))
		add("gpu.self_s", gpuSelf)
		add("gpu.winstr_per_s", ratio(float64(c["gpu.warp_instrs"]), gpuSelf))
		add("gpu.device_s", self["gpu.device"])
		add("gpu.l1_hit_ratio", ratio(float64(r.l1Hits), float64(r.l1Access)))
		add("gpu.mshr_stalls", float64(c["gpu.mshr_stalls"]))
		add("gpu.devices", float64(c["gpu.devices"]))
		add("rt.host_s", self["rt.host"])
		add("profiler.hook_calls", float64(c["profiler.hook_calls"]))
		add("profiler.hook_ns_per_event", ratio(self["profiler.hooks"]*1e9, float64(c["profiler.hook_calls"])))
		add("profiler.self_s", self["profiler"])
		add("trace.records", float64(c["trace.records"]))
		add("trace.records_seen", float64(c["trace.records_seen"]))
		add("analysis.reuse.self_s", self["analysis.reuse"])
		add("analysis.memdiv.self_s", self["analysis.memdiv"])
		add("analysis.branchdiv.self_s", self["analysis.branchdiv"])
		add("analysis.sharedbank.self_s", self["analysis.sharedbank"])
		add("instrument.self_s", self["instrument"])
		add("irtext.self_s", self["irtext"])
		add("staticadvisor.self_s", self["staticadvisor"])
		add("findings.join_s", self["findings"])
		add("export.render_s", self["export"])
		add("report.render_s", self["report"])
		hits := float64(c["profcache.memo_hits"] + c["profcache.disk_hits"])
		add("profcache.memo_hits", float64(c["profcache.memo_hits"]))
		add("profcache.disk_hits", float64(c["profcache.disk_hits"]))
		add("profcache.misses", float64(c["profcache.misses"]))
		add("profcache.stores", float64(c["profcache.stores"]))
		add("profcache.hit_ratio", ratio(hits, hits+float64(c["profcache.misses"])))
		add("profcache.put_s", r.putS.Seconds())
		add("serve.hit_p50_ms", median(untraced[i].latHit))
		add("serve.miss_p50_ms", median(untraced[i].latMiss))
		add("serve.shed", float64(c["serve.shed"]))
		add("serve.distinct_keys", float64(c["serve.distinct_keys"]))
		add("serve.repeat_share", ratio(float64(c["serve.repeats"]), float64(c["serve.requests"])))
		for _, class := range endpointClasses {
			add("serve.share."+class, ratio(float64(c["serve.class."+class]), float64(c["serve.requests"])))
		}
		add("runner.busy_ratio", ratio(r.busy(), tracedWall[i]*workers))
		add("trace.overhead_s", tracedWall[i]-wall[i])
	}
	units := map[string]string{
		"gpu.warp_instrs": "count", "gpu.winstr_per_s": "1/s", "gpu.l1_hit_ratio": "ratio",
		"gpu.mshr_stalls": "count", "gpu.devices": "count", "profiler.hook_calls": "count",
		"profiler.hook_ns_per_event": "ns", "trace.records": "count", "trace.records_seen": "count",
		"profcache.memo_hits": "count", "profcache.disk_hits": "count", "profcache.misses": "count",
		"profcache.stores": "count", "profcache.hit_ratio": "ratio", "serve.hit_p50_ms": "ms",
		"serve.miss_p50_ms": "ms", "serve.shed": "count", "serve.distinct_keys": "count",
		"serve.repeat_share": "ratio", "runner.busy_ratio": "ratio",
	}
	for _, class := range endpointClasses {
		units["serve.share."+class] = "ratio"
	}
	out := map[string]metric{}
	for name, vs := range per {
		unit := units[name]
		if unit == "" {
			unit = "s"
		}
		out[name] = metric{median(vs), unit}
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
