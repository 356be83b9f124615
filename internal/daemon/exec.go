package daemon

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/report"
	"repro/internal/tenant"
)

// Result is one executed run: the artifact plus what the one-shot tools
// print beside it.
type Result struct {
	// Artifact is the run's internal/report artifact. When a reproduce
	// run fails it holds the completed sections as a partial diagnostic
	// artifact.
	Artifact *report.Artifact
	// Tables are the run's tables in print order (reproduce: Table 1
	// first, no farm table).
	Tables []*bench.Table
	// Cells are attackbench's per-cell outcomes, payload-major over the
	// matrix columns.
	Cells []campaign.Result
}

// Execute runs one normalized spec (see Normalize) on farm — nil runs
// serially — and assembles its artifact. It is the single run path: the
// one-shot cmd/* tools and the daemon both call it, so a served artifact
// equals the one-shot tool's except for the created_at stamp and the
// diff-exempt farm table. ctx cancels queued sweep points; points already
// executing finish (simulations are not interruptible mid-point), so
// cancellation is prompt but not instant. On error the Result, when
// non-nil, carries what completed.
func Execute(ctx context.Context, farm *bench.Farm, spec RunSpec) (*Result, error) {
	farm = farm.WithContext(ctx)
	switch spec.Tool {
	case "reproduce":
		return execReproduce(farm, spec)
	case "chaosbench":
		return execChaos(farm, spec)
	case "attackbench":
		cfg := campaign.MatrixConfig{
			Seed:     spec.Seed,
			Payloads: splitList(spec.Payloads),
			Systems:  splitList(spec.Systems),
			Farm:     farm,
		}
		tb, cells, err := campaign.Matrix(cfg)
		if err != nil {
			return nil, err
		}
		tables := []*bench.Table{tb}
		art := bench.Artifact("attackbench", campaign.CellWindowMs, nil, tables)
		return &Result{Artifact: art, Tables: tables, Cells: cells}, nil
	case "tenantbench":
		counts, err := splitInts(spec.Tenants)
		if err != nil {
			return nil, err
		}
		frames, err := splitInts(spec.Frames)
		if err != nil {
			return nil, err
		}
		tables, err := tenant.Bench(tenant.BenchConfig{
			Seed:         spec.Seed,
			Schemes:      splitList(spec.Schemes),
			Attacks:      splitList(spec.Attacks),
			TenantCounts: counts,
			FrameSizes:   frames,
			Farm:         farm,
		})
		if err != nil {
			return nil, err
		}
		art := bench.Artifact("tenantbench", tenant.SweepWindowMs, nil, tables)
		return &Result{Artifact: art, Tables: tables}, nil
	}
	return nil, fmt.Errorf("unknown tool %q", spec.Tool)
}

// execReproduce runs the selected suite sections, Table 1 first, then
// appends the farm table. Table 1 is an ordinary section: its
// throughputs are Figure 1's points, shared through the suite's memo.
func execReproduce(farm *bench.Farm, spec RunSpec) (*Result, error) {
	var verdicts []report.AttackVerdict
	table1 := bench.Section{Name: "table1", Run: func(o bench.Options) (*bench.Table, error) {
		v, t, err := campaign.Table1(o)
		verdicts = v
		return t, err
	}}
	sections := append([]bench.Section{table1}, bench.Suite(!spec.SkipSensitivity)...)
	if spec.Experiments != "all" {
		want := map[string]bool{}
		for _, n := range splitList(spec.Experiments) {
			want[n] = true
		}
		var filtered []bench.Section
		for _, s := range sections {
			if want[s.Name] {
				filtered = append(filtered, s)
			}
		}
		sections = filtered
	}
	stamp := func(tables []*bench.Table) *report.Artifact {
		a := bench.Artifact("reproduce", spec.WindowMs, nil, tables)
		a.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		return a
	}
	tables, err := bench.RunSuite(sections, bench.Options{WindowMs: spec.WindowMs, Farm: farm}, 0)
	if err != nil {
		return &Result{Artifact: stamp(tables), Tables: tables}, err
	}
	a := stamp(append(tables, bench.FarmTable(farm.Stats())))
	a.Attacks = verdicts
	return &Result{Artifact: a, Tables: tables}, nil
}

// execChaos runs the scenarios on coordinator goroutines over the shared
// farm; the tables land in scenario order at every farm width.
func execChaos(farm *bench.Farm, spec RunSpec) (*Result, error) {
	cfg := chaos.Config{Seed: spec.Seed, WindowMs: spec.WindowMs,
		Cores: spec.Cores, System: spec.System, Farm: farm}
	run := chaos.Scenarios
	if spec.Scenarios != "all" {
		run = nil
		for _, name := range splitList(spec.Scenarios) {
			s, err := chaos.Find(name)
			if err != nil {
				return nil, err
			}
			run = append(run, s)
		}
	}
	tables := make([]*bench.Table, len(run))
	errs := make([]error, len(run))
	var wg sync.WaitGroup
	for i, s := range run {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i], errs[i] = s.Run(cfg)
			if errs[i] != nil {
				errs[i] = fmt.Errorf("%s: %v", s.Name, errs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	art := bench.Artifact("chaosbench", spec.WindowMs, cfg.Costs, tables)
	return &Result{Artifact: art, Tables: tables}, nil
}

// splitList expands a canonical comma list for the library configs, where
// nil means "all".
func splitList(s string) []string {
	if s == "" || s == "all" {
		return nil
	}
	return strings.Split(s, ",")
}

// splitInts expands a canonical comma list of integers; nil means the
// library default.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
