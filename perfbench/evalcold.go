package main

// eval-cold: Figure 4, Figure 5 (both panels) and Table 3 at -j 2 into a
// fresh, empty on-disk cache store, checked against all.golden.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/runner"
)

const goldenDir = "cmd/cudaadvisor/testdata"

// figure is one operation of eval-cold: the untraced renderer, its
// traced re-composition, and the golden bytes both must produce.
type figure struct {
	name   string
	write  func(io.Writer, experiments.Env) error
	traced func(io.Writer, *recorder, *runner.Pool, *profcache.Cache) error
	want   string
}

type evalCold struct{ figures []figure }

// newEvalCold loads the golden evaluation output and splits it at the
// figure headers.
func newEvalCold(int64) (workload, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, "all.golden"))
	if err != nil {
		return nil, err
	}
	golden := string(data)
	cut := func(from, to string) (string, error) {
		i, j := strings.Index(golden, from), strings.Index(golden, to)
		if i < 0 || j < i {
			return "", fmt.Errorf("all.golden: no %q before %q", from, to)
		}
		return golden[i:j], nil
	}
	f4, err := cut("=== Figure 4", "=== Figure 5")
	if err != nil {
		return nil, err
	}
	f5, err := cut("=== Figure 5", "=== Table 3")
	if err != nil {
		return nil, err
	}
	t3, err := cut("=== Table 3", "=== Figure 6")
	if err != nil {
		return nil, err
	}
	// Build every program the cells run once, so a broken input fails
	// the set-up rather than a pass.
	for _, a := range apps.InTableOrder() {
		for _, opts := range []instrument.Options{{Memory: true}, {Blocks: true}} {
			if _, err := a.Instrumented(opts); err != nil {
				return nil, err
			}
		}
	}
	return &evalCold{figures: []figure{
		{"figure4", experiments.WriteFigure4Env, tracedFigure4, f4},
		{"figure5", experiments.WriteFigure5Env, tracedFigure5, f5},
		{"table3", experiments.WriteTable3Env, tracedTable3, t3},
	}}, nil
}

func (e *evalCold) pass(rec *recorder) passResult {
	var r passResult
	dir, err := os.MkdirTemp(stateDir, "eval-cold-")
	if err != nil {
		return passResult{failed: 1, lat: []float64{0}, problems: []string{err.Error()}}
	}
	defer os.RemoveAll(dir)
	pool := runner.New(workers)
	cache := profcache.New(dir)
	env := experiments.Env{Pool: pool, Scale: 1, Cache: cache}
	var out bytes.Buffer
	for _, f := range e.figures {
		var b bytes.Buffer
		t0 := time.Now()
		if rec == nil {
			err = f.write(&b, env)
		} else {
			err = f.traced(&b, rec, pool, cache)
		}
		r.lat = append(r.lat, float64(time.Since(t0))/1e6)
		switch {
		case err != nil:
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", f.name, err))
		case b.String() != f.want:
			r.failed++
			r.problems = append(r.problems, f.name+": output differs from all.golden")
		}
		out.Write(b.Bytes())
	}
	r.out = out.Bytes()
	r.counters = cacheCounters(cache)
	return r
}

// cacheCounters are the deterministic cache counts of a pass.
func cacheCounters(c *profcache.Cache) map[string]int64 {
	s := c.Stats()
	return map[string]int64{
		"profcache.memo_hits": s.MemoHits,
		"profcache.disk_hits": s.DiskHits,
		"profcache.misses":    s.Misses,
		"profcache.stores":    s.Stores,
	}
}

// The traced figures repeat what experiments.Write*Env do, with the same
// cells, cache keys, pool fan-out and renderers, so their bytes must be
// the untraced ones.

func tracedFigure4(w io.Writer, rec *recorder, pool *runner.Pool, cache *profcache.Cache) error {
	names := experiments.Figure4Apps
	as := make([]*apps.App, len(names))
	for i, n := range names {
		as[i] = apps.ByName(n)
	}
	res, err := tracedCells(rec, pool, cache, "figure4", as, gpu.KeplerK40c(), instrument.Options{Memory: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 4: reuse distance analysis (element-based, per CTA) ===")
	ct := rec.cell("figure4/render")
	defer ct.finish()
	for i, n := range names {
		timed(ct, "report", func() int { report.ReuseHistogram(w, n, res[i].ReuseElem()); return 0 })
	}
	return nil
}

func tracedFigure5(w io.Writer, rec *recorder, pool *runner.Pool, cache *profcache.Cache) error {
	cfgs := []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()}
	bufs := make([]bytes.Buffer, len(cfgs))
	err := runner.Concurrent(pool, len(cfgs), func(i int) error {
		cfg := cfgs[i]
		res, err := tracedCells(rec, pool, cache, "figure5/"+cfg.Name, apps.InTableOrder(), cfg, instrument.Options{Memory: true})
		if err != nil {
			return err
		}
		ct := rec.cell("figure5/" + cfg.Name + "/render")
		defer ct.finish()
		fmt.Fprintf(&bufs[i], "=== Figure 5: memory divergence on %s (%d B cache lines) ===\n", cfg.Name, cfg.L1LineSize)
		for j, a := range apps.InTableOrder() {
			timed(ct, "report", func() int { report.MemDivDistribution(&bufs[i], a.Name, res[j].MemDiv()); return 0 })
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		w.Write(bufs[i].Bytes())
	}
	return nil
}

func tracedTable3(w io.Writer, rec *recorder, pool *runner.Pool, cache *profcache.Cache) error {
	order := apps.InTableOrder()
	res, err := tracedCells(rec, pool, cache, "table3", order, gpu.PascalP100(), instrument.Options{Blocks: true})
	if err != nil {
		return err
	}
	rows := make([]report.BranchRow, len(order))
	for i, a := range order {
		rows[i] = report.BranchRow{App: a.Name, Result: res[i].BranchDiv()}
	}
	fmt.Fprintln(w, "=== Table 3: branch divergence ===")
	ct := rec.cell("table3/render")
	defer ct.finish()
	timed(ct, "report", func() int { report.BranchDivTable(w, rows); return 0 })
	return nil
}

// tracedCells profiles one cell per app on the pool through the cache.
func tracedCells(rec *recorder, pool *runner.Pool, cache *profcache.Cache, prefix string, as []*apps.App, cfg gpu.ArchConfig, opts instrument.Options) ([]*profcache.Results, error) {
	return runner.MapCtx(context.Background(), pool, len(as), func(ctx context.Context, i int) (*profcache.Results, error) {
		ct := rec.cell(prefix + "/" + as[i].Name)
		defer ct.finish()
		return tracedResults(ctx, ct, pool, cache, as[i], cfg, opts)
	})
}

// tracedResults is one profiling cell through the cache. On a miss the
// cache derives all four merged analyses inside its own call before it
// stores the entry, where no span can reach; the fill runs the same
// four derivations once more to time them. profcache.put_s is the
// cache's time around the fill, its derivation included.
func tracedResults(ctx context.Context, ct *cellTrace, pool *runner.Pool, cache *profcache.Cache, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options) (*profcache.Results, error) {
	var fillDur time.Duration
	t0 := time.Now()
	end := ct.begin("profcache")
	res, err := cache.Profile(ctx, profcache.ProfileKey(app, cfg, opts, 1, 0), cfg.L1LineSize, func(ctx context.Context) (*profiler.Profiler, error) {
		f0 := time.Now()
		defer func() { fillDur = time.Since(f0) }()
		p, err := profile(ctx, ct, pool, app, cfg, opts)
		if err != nil {
			return nil, err
		}
		deriveAll(ct, p, cfg.L1LineSize)
		return p, nil
	})
	end()
	if fillDur > 0 {
		ct.putS += time.Since(t0) - fillDur
	}
	return res, err
}

// deriveAll times the derivations profcache.Results.ResolveAll makes.
func deriveAll(ct *cellTrace, p *profiler.Profiler, lineSize int) {
	timed(ct, "analysis.reuse", func() *analysis.ReuseResult {
		profcache.MergedReuse(p, analysis.DefaultElementReuse())
		return profcache.MergedReuse(p, analysis.LineReuse(lineSize))
	})
	timed(ct, "analysis.memdiv", func() *analysis.MemDivResult { return profcache.MergedMemDiv(p, lineSize) })
	timed(ct, "analysis.branchdiv", func() *analysis.BranchDivResult { return profcache.MergedBranchDiv(p) })
}
