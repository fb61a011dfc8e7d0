// Command perfbench is the repository benchmark. It runs one workload of
// the reproduction for a fixed time, checks every output against the
// golden files, and prints the metrics BENCHMARK.json names as the last
// line of standard output:
//
//	perfbench --workload eval-cold|bypass-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics of the traced ones (see README.md). It runs from the
// repository root: it reads the goldens under cmd/cudaadvisor/testdata
// and keeps scratch state under .bench_build/perfbench.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cudaadvisor/internal/profcache"
)

// workers is the pool width and client count of every workload: the
// benchmark machine has two cores.
const workers = 2

// A run builds its inputs setupReps times before the warm-up pass and
// setupPerPass more times before each timed pass, each from a collected
// heap; setup_s is the median of them all. Spreading the samples over the
// run keeps one slow phase of the machine from setting it.
const setupReps, setupPerPass = 5, 3

// stateDir holds the fresh cache stores of each pass and the counter
// record that detects drift between runs.
var stateDir = filepath.Join(".bench_build", "perfbench")

// workload is one benchmark workload, built by its constructor (the
// timed set-up) and run pass after pass.
type workload interface {
	// pass runs the workload once. rec is nil on untraced passes.
	pass(rec *recorder) passResult
}

// passResult is what one pass did.
type passResult struct {
	out      []byte    // everything rendered, compared between passes
	lat      []float64 // per-operation latency, ms
	latHit   []float64 // serve-mix: requests repeating an earlier key, ms
	latMiss  []float64 // serve-mix: first request of each key, ms
	failed   int       // operations whose output was wrong or errored
	problems []string  // what went wrong, for the log
	counters map[string]int64
}

var workloads = map[string]func(seed int64) (workload, error){
	"eval-cold":    newEvalCold,
	"bypass-sweep": newBypassSweep,
	"serve-mix":    newServeMix,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "eval-cold, bypass-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	build := workloads[*name]
	if build == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload eval-cold|bypass-sweep|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, info, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// run does the set-ups and a warm-up pass, then passes until the time is
// up: a pass starts only if the median pass so far still fits. A traced
// run alternates untraced and traced passes.
func run(name string, seed int64, budget time.Duration, traced bool, build func(int64) (workload, error)) (result, map[string]any, error) {
	var setup []float64
	setUp := func(n int) (w workload, err error) {
		for i := 0; i < n && err == nil; i++ {
			runtime.GC()
			t0 := time.Now()
			w, err = build(seed)
			setup = append(setup, time.Since(t0).Seconds())
		}
		if err != nil {
			err = fmt.Errorf("%s set-up: %w", name, err)
		}
		return w, err
	}
	w, err := setUp(setupReps)
	if err != nil {
		return result{}, nil, err
	}

	var (
		t                 tally
		wall, alloc, tput []float64
		lats              [][]float64 // operation latencies, per pass
		tracedWall        []float64
		ops               int
		recs              []*recorder
		untraced          []passResult // of a traced run, one per traced pass
		tracedCounters    map[string]int64
	)
	// A warm-up pass lets the heap grow to its working size before
	// anything is timed. It is checked like the others and is the
	// reference every later pass must repeat exactly: the same rendered
	// bytes and the same deterministic counters.
	warm, _, _ := measured(w, nil)
	t.pass(warm)
	start := time.Now()
	for n := 1; n == 1 || time.Since(start)+secs(median(wall)+median(tracedWall)) <= budget; n++ {
		if _, err := setUp(setupPerPass); err != nil {
			return result{}, nil, err
		}
		r, s, mb := measured(w, nil)
		wall, alloc, tput = append(wall, s), append(alloc, mb), append(tput, float64(len(r.lat))/s)
		lats = append(lats, r.lat)
		ops += len(r.lat)
		t.pass(r)
		d := drift(warm.counters, r.counters)
		t.check(d == "" && bytes.Equal(r.out, warm.out), fmt.Sprintf("pass %d differs from the warm-up pass: %s", n, d))
		if !traced {
			continue
		}
		untraced = append(untraced, passResult{latHit: r.latHit, latMiss: r.latMiss})
		rec := newRecorder()
		tr, ts, _ := measured(w, rec)
		tracedWall, recs = append(tracedWall, ts), append(recs, rec)
		t.pass(tr)
		t.check(bytes.Equal(tr.out, warm.out), "traced pass rendered other bytes than the untraced passes")
		d = drift(warm.counters, tr.counters)
		t.check(d == "", "traced pass counters differ from the untraced passes: "+d)
		for k, v := range tr.counters {
			rec.counters[k] = v
		}
		if tracedCounters == nil {
			tracedCounters = rec.counters
		}
		d = drift(tracedCounters, rec.counters)
		t.check(d == "", "traced pass counters differ between traced passes: "+d)
	}
	counters := map[string]int64{}
	for _, m := range []map[string]int64{warm.counters, tracedCounters} {
		for k, v := range m {
			counters[k] = v
		}
	}
	d := checkRecord(name, seed, traced, counters)
	t.check(d == "", "counters drifted from an earlier run of this build: "+d)

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	if traced {
		res.Metrics = layerMetrics(recs, untraced, wall, tracedWall)
		if err := recs[len(recs)-1].writeSpans(filepath.Join(stateDir, name+"-spans.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		res.Metrics = map[string]metric{
			"wall_s":    {median(wall), "s"},
			"alloc_mb":  {median(alloc), "MB"},
			"setup_s":   {median(setup), "s"},
			"p50_ms":    {latencyPercentile(lats, 50), "ms"},
			"p99_ms":    {latencyPercentile(lats, 99), "ms"},
			"req_per_s": {median(tput), "1/s"},
		}
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	info := map[string]any{
		"workload":    name,
		"seed":        seed,
		"traced":      traced,
		"machine":     machine(),
		"passes":      len(wall),
		"operations":  ops,
		"peak_rss_mb": peakRSSMB(),
		"counters":    counters,
		"setup_s":     setup,
		"wall_s":      wall,
	}
	if traced {
		info["traced_wall_s"] = tracedWall
	}
	if n := float64(counters["serve.requests"]); n > 0 {
		info["repeat_share"] = float64(counters["serve.repeats"]) / n
		share := map[string]float64{}
		for _, c := range endpointClasses {
			share[c] = float64(counters["serve.class."+c]) / n
		}
		info["class_share"] = share
	}
	return res, info, nil
}

// tally counts the operations and checks of a run and what failed.
type tally struct {
	attempted, failed int
	problems          []string
}

// pass adds one pass's operations.
func (t *tally) pass(r passResult) {
	t.attempted += len(r.lat)
	t.failed += r.failed
	t.problems = append(t.problems, r.problems...)
}

// check adds one check; problem describes it when it failed.
func (t *tally) check(ok bool, problem string) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, problem)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measured runs one pass from a collected heap and returns it with its
// wall time and the megabytes it allocated.
func measured(w workload, rec *recorder) (passResult, float64, float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	r := w.pass(rec)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return r, wall, float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// drift describes how two counter sets differ ("" when equal).
func drift(want, got map[string]int64) string {
	var diffs []string
	for k, v := range want {
		if got[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %d -> %d", k, v, got[k]))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s new %d", k, v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// counterRecord is what one run left for the next run of the same build.
type counterRecord struct {
	Build    string           `json:"build"`
	Machine  map[string]any   `json:"machine"`
	Counters map[string]int64 `json:"counters"`
}

// checkRecord compares this run's counters with the last run of the same
// build, workload, mode and seed on a like machine, then records them.
// Only serve-mix inputs depend on the seed; the others share one record.
func checkRecord(name string, seed int64, traced bool, counters map[string]int64) string {
	path := filepath.Join(stateDir, "counters.json")
	records := map[string]counterRecord{}
	if data, err := os.ReadFile(path); err == nil {
		json.Unmarshal(data, &records) // a damaged record is replaced below
	}
	key := fmt.Sprintf("%s/trace=%v", name, traced)
	if name == "serve-mix" {
		key += fmt.Sprintf("/seed=%d", seed)
	}
	cur := counterRecord{Build: profcache.BuildVersion(), Machine: machine(), Counters: counters}
	d := ""
	if prev, ok := records[key]; ok && prev.Build == cur.Build && sameMachine(prev.Machine, cur.Machine) {
		d = drift(prev.Counters, cur.Counters)
	}
	records[key] = cur
	data, _ := json.MarshalIndent(records, "", "  ") // plain values always encode
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		// The next run then has nothing to compare with; say so.
		fmt.Fprintln(os.Stderr, "perfbench: recording counters:", err)
	}
	return d
}

func sameMachine(a, b map[string]any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// machine describes the host, so only like runs are compared.
func machine() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set (VmHWM), 0 if unknown.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
