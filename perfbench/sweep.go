package main

// bypass-sweep: the Figure 7 (Pascal, 24 KB) oracle sweep for bfs,
// hotspot and bicg at the bypass timing scale, on native code with a
// cycle counter: the simulator's timing model alone, with no hooks,
// profiler, analysis or cache.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
)

// sweepApps are the swept applications with the predicted warps of
// their Figure 7 rows. syrk and syr2k are left out: their sweeps take
// 20-30 s each.
var sweepApps = []struct {
	name    string
	predict int
}{{"bfs", 16}, {"hotspot", 8}, {"bicg", 2}}

type bypassSweep struct {
	cfg  gpu.ArchConfig
	apps []*apps.App
	want string // the Figure 7 table header and the swept apps' rows
}

func newBypassSweep(int64) (workload, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, "all.golden"))
	if err != nil {
		return nil, err
	}
	s := &bypassSweep{cfg: gpu.PascalP100()}
	_, fig7, ok := strings.Cut(string(data), "=== Figure 7")
	if !ok {
		return nil, fmt.Errorf("all.golden: no Figure 7")
	}
	lines := strings.Split(fig7, "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("all.golden: Figure 7 has no table")
	}
	want := []string{lines[1]}
	for _, sa := range sweepApps {
		a := apps.ByName(sa.name)
		if a == nil {
			return nil, fmt.Errorf("no application %q", sa.name)
		}
		// Parse once here so a broken app fails the set-up, not a pass.
		if _, err := a.Native(); err != nil {
			return nil, err
		}
		s.apps = append(s.apps, a)
		for _, l := range lines[2:] {
			if strings.HasPrefix(l, sa.name+" ") {
				want = append(want, l)
			}
		}
	}
	if len(want) != len(sweepApps)+1 {
		return nil, fmt.Errorf("all.golden: Figure 7 lacks a row for one of the swept apps")
	}
	s.want = strings.Join(want, "\n") + "\n"
	return s, nil
}

func (s *bypassSweep) pass(rec *recorder) passResult {
	var r passResult
	var mu sync.Mutex // guards the counters across sweep points
	var cycles, launches int64
	pool := runner.New(workers)
	// The apps sweep one after another, each sweep one operation: its
	// points fan out on the pool, so two run at a time throughout.
	rows := make([]bypass.Comparison, len(s.apps))
	for i, a := range s.apps {
		t0 := time.Now()
		cmp, err := bypass.Compare(a.Name, s.cfg.Name, s.cfg, a.WarpsPerCTA, sweepApps[i].predict, pool, func(k int) (int64, error) {
			l1Warps := k
			if k >= a.WarpsPerCTA {
				l1Warps = 0 // rt semantics: 0 = no bypassing
			}
			ct := rec.cell(fmt.Sprintf("figure7/%s/%s/k=%d", s.cfg.Name, a.Name, k))
			defer ct.finish()
			counter, err := nativeRun(ct, pool, a, s.cfg, l1Warps)
			if err != nil {
				return 0, err
			}
			mu.Lock()
			defer mu.Unlock()
			cycles += counter.Cycles
			launches += int64(counter.Launches)
			return counter.Cycles, nil
		})
		r.lat = append(r.lat, float64(time.Since(t0))/1e6)
		rows[i] = cmp
		if err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
		}
	}
	var b bytes.Buffer
	report.BypassComparison(&b, rows)
	r.out = b.Bytes()
	// The rendered rows must be Figure 7's (a failed sweep is counted
	// already).
	if r.failed == 0 && b.String() != s.want {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("Figure 7 rows differ from all.golden:\n%s", b.String()))
	}
	r.counters = map[string]int64{"gpu.cycles": cycles, "gpu.launches": launches}
	return r
}

// nativeRun is the experiments layer's native cycle-model run: the
// app's uninstrumented program on a fresh device under a cycle counter.
func nativeRun(ct *cellTrace, pool *runner.Pool, a *apps.App, cfg gpu.ArchConfig, l1Warps int) (*rt.CycleCounter, error) {
	prog, err := timed2(ct, "irtext", a.Native)
	if err != nil {
		return nil, err
	}
	counter := rt.NewCycleCounter()
	c := newContext(context.Background(), ct, pool, cfg, counter)
	c.Options.L1Warps = l1Warps
	end := ct.begin("rt.host")
	defer end()
	return counter, a.Run(c, prog, experiments.BypassRunScale)
}
