package main

// serve-mix: seeded request traffic against an in-process serve handler
// (httptest, no sockets) on a fresh cache directory, from a closed loop
// of two clients. Every key of the mix is requested at least once, so
// each pass fills the same working set whatever the seed; the seed
// decides the popularity rankings, the request order and the uploaded
// .mir modules.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/serve"
	"cudaadvisor/internal/staticadvisor"
)

// serveRequests is the number of requests of one pass, and serveEpochs
// the number of popularity epochs they come in.
const serveRequests, serveEpochs = 1000, 20

// uploadVariants is how many renamed copies of each testdata kernel file
// the seed generates.
const uploadVariants = 2

// zipfS is the skew of key popularity. No traffic of a profiling
// service has been observed; this is an assumption, borrowed from web
// proxy traces, whose request popularity follows a Zipf-like law with
// exponents of 0.64 to 0.83 (Breslau et al., "Web Caching and Zipf-like
// Distributions: Evidence and Implications", INFOCOM 1999).
const zipfS = 0.8

var archs = []struct {
	name string
	cfg  gpu.ArchConfig
}{{"kepler", gpu.KeplerK40c()}, {"pascal", gpu.PascalP100()}}

// request is one distinct key of the mix.
type request struct {
	endpoint string // profile, advise, export, lint
	app      *apps.App
	cfg      gpu.ArchConfig
	upload   string // upload name; "" for built-in apps
	body     []byte
	method   string
	target   string
	golden   []byte // expected body, nil when the key has no golden
}

type serveMix struct {
	keys []request
	seq  []int // request order: indices into keys
}

// uploadSources are the testdata kernel files the uploads derive from,
// with the goldens of their unmodified lint and JSON advise responses.
var uploadSources = []struct{ path, lint, advise string }{
	{"cmd/cudaadvisor/testdata/fixture.mir", "fixture.golden", ""},
	{"cmd/cudaadvisor/testdata/smem.mir", "smem_lint.golden", "advise_smem.golden"},
	{"cmd/advisor-opt/testdata/sample.mir", "", ""},
}

// symbol matches what a seeded variant renames: the global symbols and
// the module name.
var symbol = regexp.MustCompile(`(@[A-Za-z_][A-Za-z0-9_]*|^module [A-Za-z_][A-Za-z0-9_]*)`)

func newServeMix(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	readGolden := func(name string) ([]byte, error) {
		if name == "" {
			return nil, nil
		}
		return os.ReadFile(filepath.Join(goldenDir, name))
	}
	s := &serveMix{}
	for _, a := range apps.InTableOrder() {
		for _, ar := range archs {
			q := url.Values{"app": {a.Name}, "arch": {ar.name}}
			for _, ep := range []string{"profile", "advise", "export", "lint"} {
				r := request{endpoint: ep, app: a, cfg: ar.cfg, method: http.MethodGet, target: "/v1/" + ep + "?" + q.Encode()}
				if ep == "profile" {
					r.target += "&smem=1"
				}
				var golden string
				switch {
				case ep == "advise" && a.Name == "bfs" && ar.name == "kepler":
					golden = "advise_bfs.golden"
				case ep == "export" && ar.name == "kepler" && (a.Name == "bicg" || a.Name == "lavaMD" || a.Name == "nn"):
					golden = "export_" + a.Name + "_cycles.golden"
				}
				var err error
				if r.golden, err = readGolden(golden); err != nil {
					return nil, err
				}
				s.keys = append(s.keys, r)
			}
		}
	}
	for _, src := range uploadSources {
		data, err := os.ReadFile(src.path)
		if err != nil {
			return nil, err
		}
		name := "testdata/" + filepath.Base(src.path)
		lintGolden, err := readGolden(src.lint)
		if err != nil {
			return nil, err
		}
		adviseGolden, err := readGolden(src.advise)
		if err != nil {
			return nil, err
		}
		if err := s.addUpload(name, data, lintGolden, adviseGolden); err != nil {
			return nil, err
		}
		// Seeded variants: every symbol and the module renamed, so each
		// is a distinct key with the same analysis work.
		for v := 0; v < uploadVariants; v++ {
			tag := fmt.Sprintf("_s%x", rng.Uint32())
			body := symbol.ReplaceAllString(string(data), "${1}"+tag)
			vname := "testdata/" + strings.TrimSuffix(filepath.Base(src.path), ".mir") + tag + ".mir"
			if err := s.addUpload(vname, []byte(body), nil, nil); err != nil {
				return nil, err
			}
		}
	}

	// Popularity: every key is requested once, in a seeded epoch, so each
	// pass fills the same working set. The other requests repeat keys,
	// spread evenly over the epochs; within an epoch they follow the
	// expected counts of a Zipf law over the epoch's own seeded shuffle of
	// all the keys. So the hot keys change from epoch to epoch (popularity
	// drift, an assumption like the skew), and a pass's mix of endpoints
	// averages over serveEpochs rankings instead of resting on one.
	epochs := make([][]int, serveEpochs)
	for k := range s.keys {
		e := rng.Intn(serveEpochs)
		epochs[e] = append(epochs[e], k)
	}
	repeats := serveRequests - len(s.keys)
	for e, seq := range epochs {
		n := repeats / serveEpochs
		if e < repeats%serveEpochs {
			n++
		}
		rank := rng.Perm(len(s.keys))
		for r, c := range zipfCounts(len(rank), n) {
			for ; c > 0; c-- {
				seq = append(seq, rank[r])
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		s.seq = append(s.seq, seq...)
	}
	return s, nil
}

// zipfCounts splits total repeats over n ranks in proportion to
// (rank+1)^-zipfS, rounding by largest remainder so they sum to total.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
		sum += w[r]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := total
	for r := range w {
		exact := w[r] / sum * float64(total)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, r := range rem[:left] {
		counts[r]++
	}
	return counts
}

// class is the endpoint class of a key: its endpoint, or "upload" for a
// POSTed module.
func (k *request) class() string {
	if k.upload != "" {
		return "upload"
	}
	return k.endpoint
}

// endpointClasses are the classes whose request counts a pass reports.
var endpointClasses = []string{"profile", "advise", "export", "lint", "upload"}

// addUpload adds the lint and advise keys of one uploaded module, after
// checking that it parses.
func (s *serveMix) addUpload(name string, body, lintGolden, adviseGolden []byte) error {
	if _, err := irtext.Parse(name, string(body)); err != nil {
		return err
	}
	q := url.Values{"name": {name}}
	s.keys = append(s.keys,
		request{endpoint: "lint", upload: name, cfg: gpu.KeplerK40c(), body: body, method: http.MethodPost,
			target: "/v1/lint?" + q.Encode(), golden: lintGolden},
		request{endpoint: "advise", upload: name, cfg: gpu.KeplerK40c(), body: body, method: http.MethodPost,
			target: "/v1/advise?format=json&" + q.Encode(), golden: adviseGolden})
	return nil
}

// pass sends the whole sequence from two clients, each sending its next
// request when the previous reply is in. Untraced requests go through
// the serve handler; traced ones through tracedServe.
func (s *serveMix) pass(rec *recorder) passResult {
	var r passResult
	dir, err := os.MkdirTemp(stateDir, "serve-mix-")
	if err != nil {
		return passResult{failed: 1, lat: []float64{0}, problems: []string{err.Error()}}
	}
	defer os.RemoveAll(dir)
	pool := runner.New(workers)
	cache := profcache.New(dir)
	gate := runner.NewGate(workers, 16)
	srv := serve.New(serve.Config{Pool: pool, Cache: cache, Gate: gate})

	status := make([]int, len(s.seq))
	bodies := make([][]byte, len(s.seq))
	r.lat = make([]float64, len(s.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.seq) {
					return
				}
				k := &s.keys[s.seq[i]]
				t0 := time.Now()
				if rec == nil {
					rr := httptest.NewRecorder()
					srv.ServeHTTP(rr, httptest.NewRequest(k.method, k.target, bytes.NewReader(k.body)))
					status[i], bodies[i] = rr.Code, rr.Body.Bytes()
				} else {
					ct := rec.cell(k.target)
					status[i], bodies[i] = tracedServe(ct, k, pool, cache, gate)
					ct.finish()
				}
				r.lat[i] = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()

	// Checks: 200 everywhere, goldens where they exist, and every repeat
	// of a key byte-identical to its first response.
	first := make([]int, len(s.keys))
	for i := range first {
		first[i] = -1
	}
	repeats := 0
	for i, ki := range s.seq {
		k := &s.keys[ki]
		bad := ""
		switch {
		case status[i] != http.StatusOK:
			bad = fmt.Sprintf("status %d: %.200s", status[i], bodies[i])
		case first[ki] < 0 && k.golden != nil && !bytes.Equal(bodies[i], k.golden):
			bad = "response differs from its golden"
		case first[ki] >= 0 && !bytes.Equal(bodies[i], bodies[first[ki]]):
			bad = "repeat differs from the first response"
		}
		if bad != "" {
			r.failed++
			r.problems = append(r.problems, k.method+" "+k.target+": "+bad)
		}
		if first[ki] < 0 {
			first[ki] = i
			r.latMiss = append(r.latMiss, r.lat[i])
		} else {
			repeats++
			r.latHit = append(r.latHit, r.lat[i])
		}
	}
	var out bytes.Buffer
	for _, i := range first {
		if i >= 0 {
			out.Write(bodies[i])
		}
	}
	r.out = out.Bytes()
	r.counters = cacheCounters(cache)
	r.counters["serve.requests"] = int64(len(s.seq))
	r.counters["serve.distinct_keys"] = int64(len(s.seq) - repeats)
	r.counters["serve.repeats"] = int64(repeats)
	r.counters["serve.shed"] = gate.Shed()
	for _, ki := range s.seq {
		r.counters["serve.class."+s.keys[ki].class()]++
	}
	return r
}

// tracedServe answers one request the way the serve handler does, from
// the same experiments-layer building blocks called one by one: gate,
// cache entry (same key), profile, analyses, renderers.
func tracedServe(ct *cellTrace, k *request, pool *runner.Pool, cache *profcache.Cache, gate *runner.Gate) (int, []byte) {
	ctx := context.Background()
	release, err := gate.Enter(ctx)
	if err != nil {
		return http.StatusTooManyRequests, []byte(err.Error())
	}
	defer release()
	var b bytes.Buffer
	switch {
	case k.upload != "":
		err = tracedUpload(ct, k, &b)
	case k.endpoint == "profile":
		err = tracedProfile(ctx, ct, k, pool, cache, &b)
	case k.endpoint == "advise":
		err = tracedAdvise(ctx, ct, k, pool, cache, &b)
	case k.endpoint == "export":
		err = tracedExport(ctx, ct, k, pool, cache, &b)
	case k.endpoint == "lint":
		err = tracedLintApp(ct, k, &b)
	}
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error())
	}
	return http.StatusOK, b.Bytes()
}

// cachedBytes is a view or advise cache lookup; on a fill, put_s is the
// cache's own time around it.
func cachedBytes(ctx context.Context, ct *cellTrace, cache *profcache.Cache, key profcache.Key, fill func(context.Context) ([]byte, error)) ([]byte, error) {
	var fillDur time.Duration
	t0 := time.Now()
	end := ct.begin("profcache")
	out, err := cache.Bytes(ctx, key, func(ctx context.Context) ([]byte, error) {
		f0 := time.Now()
		defer func() { fillDur = time.Since(f0) }()
		return fill(ctx)
	})
	end()
	if fillDur > 0 {
		ct.putS += time.Since(t0) - fillDur
	}
	return out, err
}

// tracedProfile is /v1/profile?mode=all&smem=1 (experiments.WriteProfileEnv).
func tracedProfile(ctx context.Context, ct *cellTrace, k *request, pool *runner.Pool, cache *profcache.Cache, w *bytes.Buffer) error {
	opts := instrument.MemorySharedAndBlocks()
	key := profcache.ViewKey(k.app, k.cfg, opts, 1, 0, "profile:all+smem")
	out, err := cachedBytes(ctx, ct, cache, key, func(ctx context.Context) ([]byte, error) {
		p, err := runner.DoCtx(ctx, pool, func(ctx context.Context) (*profiler.Profiler, error) {
			return profile(ctx, ct, pool, k.app, k.cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		adv := core.FromProfile(k.cfg, opts, p)
		fmt.Fprintf(&b, "profiled %s on %s: %d kernel instances\n\n", k.app.Name, k.cfg.Name, len(adv.Kernels()))
		rd := timed(ct, "analysis.reuse", func() *analysis.ReuseResult { return adv.ReuseDistance(analysis.DefaultElementReuse()) })
		timed(ct, "report", func() int { report.ReuseHistogram(&b, k.app.Name, rd); return 0 })
		fmt.Fprintln(&b)
		md := timed(ct, "analysis.memdiv", adv.MemDivergence)
		timed(ct, "report", func() int { report.MemDivDistribution(&b, k.app.Name, md); return 0 })
		fmt.Fprintln(&b)
		// The two section writers derive their analysis and print a few
		// lines; the span is the analysis.
		timed(ct, "analysis.branchdiv", func() int { adv.WriteBranchDivergenceReport(&b); return 0 })
		fmt.Fprintln(&b)
		timed(ct, "analysis.sharedbank", func() int { adv.WriteSharedMemReport(&b); return 0 })
		fmt.Fprintln(&b)
		fmt.Fprintln(&b, "most memory-divergent sites (code-centric view):")
		md = timed(ct, "analysis.memdiv", adv.MemDivergence)
		timed(ct, "report", func() int { report.CodeCentric(&b, p, md, 3); return 0 })
		return b.Bytes(), nil
	})
	w.Write(out)
	return err
}

// tracedAdvise is /v1/advise?app= in text (experiments.WriteAdviseEnv).
func tracedAdvise(ctx context.Context, ct *cellTrace, k *request, pool *runner.Pool, cache *profcache.Cache, w *bytes.Buffer) error {
	opts := instrument.MemorySharedAndBlocks()
	key := profcache.AdviseKey(k.app, k.cfg, opts, 1, 0, findings.SchemaVersion)
	raw, err := runner.DoCtx(ctx, pool, func(ctx context.Context) ([]byte, error) {
		return cachedBytes(ctx, ct, cache, key, func(ctx context.Context) ([]byte, error) {
			p, err := profile(ctx, ct, pool, k.app, k.cfg, opts)
			if err != nil {
				return nil, err
			}
			m, err := timed2(ct, "irtext", k.app.Module)
			if err != nil {
				return nil, err
			}
			res, err := timed2(ct, "staticadvisor", func() (*staticadvisor.ModuleResult, error) {
				return staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: k.app.BlockDims})
			})
			if err != nil {
				return nil, err
			}
			return timed2(ct, "findings", func() ([]byte, error) {
				fs := findings.FromStatic(res, k.cfg.L1LineSize)
				findings.Join(fs, findings.CollectProfile(p, k.cfg.L1LineSize), k.cfg)
				return findings.Encode(findings.NewReport(k.app.Name, k.cfg.Name, k.cfg.L1LineSize, 1, fs))
			})
		})
	})
	if err != nil {
		return err
	}
	rep, err := timed2(ct, "findings", func() (*findings.Report, error) { return findings.Decode(raw) })
	if err != nil {
		return err
	}
	timed(ct, "findings", func() int { findings.WriteText(w, rep); return 0 })
	return nil
}

// tracedExport is /v1/export?app= as folded cycles (experiments.WriteExportEnv).
func tracedExport(ctx context.Context, ct *cellTrace, k *request, pool *runner.Pool, cache *profcache.Cache, w *bytes.Buffer) error {
	opts := instrument.MemoryAndBlocks()
	key := profcache.ViewKey(k.app, k.cfg, opts, 1, 0, "export:folded:cycles")
	out, err := cachedBytes(ctx, ct, cache, key, func(ctx context.Context) ([]byte, error) {
		p, err := runner.DoCtx(ctx, pool, func(ctx context.Context) (*profiler.Profiler, error) {
			return profile(ctx, ct, pool, k.app, k.cfg, opts)
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		adv := core.FromProfile(k.cfg, opts, p)
		_, err = timed2(ct, "export", func() (int, error) { return 0, adv.WriteFolded(&b, "cycles") })
		return b.Bytes(), err
	})
	w.Write(out)
	return err
}

// tracedLintApp is /v1/lint?app= (experiments.AnalyzeAppStatic + text lint).
func tracedLintApp(ct *cellTrace, k *request, w *bytes.Buffer) error {
	m, err := timed2(ct, "irtext", k.app.Module)
	if err != nil {
		return err
	}
	res, err := timed2(ct, "staticadvisor", func() (*staticadvisor.ModuleResult, error) {
		return staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: k.app.BlockDims})
	})
	if err != nil {
		return err
	}
	timed(ct, "report", func() int { report.StaticLint(w, res); return 0 })
	return nil
}

// tracedUpload is a POSTed .mir to /v1/lint (text) or /v1/advise (JSON).
func tracedUpload(ct *cellTrace, k *request, w *bytes.Buffer) error {
	m, err := timed2(ct, "irtext", func() (*ir.Module, error) { return irtext.Parse(k.upload, string(k.body)) })
	if err != nil {
		return err
	}
	res, err := timed2(ct, "staticadvisor", func() (*staticadvisor.ModuleResult, error) { return staticadvisor.Analyze(m) })
	if err != nil {
		return err
	}
	if k.endpoint == "lint" {
		timed(ct, "report", func() int { report.StaticLint(w, res); return 0 })
		return nil
	}
	raw, err := timed2(ct, "findings", func() ([]byte, error) {
		fs := findings.FromStatic(res, k.cfg.L1LineSize)
		return findings.Encode(findings.NewReport(res.Module.Name, k.cfg.Name, k.cfg.L1LineSize, 0, fs))
	})
	w.Write(raw)
	return err
}
