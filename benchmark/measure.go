package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/report"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest timed passes a run measures, however short
	// its -seconds.
	minPasses = 3
	// warmSlice is how long the warm requests run after each pass.
	warmSlice = 300 * time.Millisecond
)

// pass runs one pass of a workload: its tools back to back, each artifact
// checked against expect. A tool with no expectation yet sets it (the
// first output at a seed without references). profile, when set, asks the
// tools for a CPU profile (reproduce supports it). The pass counts as one
// operation.
func (r *runner) pass(t *tally, runs []toolRun, seed int64, expect map[string]*report.Artifact,
	name string, parent int64, profile string) (procResult, []procResult) {
	id := r.tr.newID()
	start := time.Now()
	var tot procResult
	per := make([]procResult, 0, len(runs))
	for _, run := range runs {
		path := filepath.Join(r.out, run.ref+".json")
		args := append(run.argsAt(seed), "-json", path)
		if profile != "" {
			args = append(args, "-cpuprofile", profile)
		}
		p := r.runTool(id, 0, run.tool, args...)
		per = append(per, p)
		tot.wall += p.wall
		tot.cpu += p.cpu
		tot.rssKB = max(tot.rssKB, p.rssKB)
		if p.err != nil {
			tot.err = p.err
			break
		}
		a, err := t.checkArtifact(expect[run.ref], path)
		if err != nil {
			tot.err = err
			break
		}
		if expect[run.ref] == nil {
			expect[run.ref] = a
		}
	}
	t.op(tot.err)
	r.tr.record(id, parent, name, "pass", 0, start, time.Now(), nil)
	return tot, per
}

// expectations returns what each tool's output must equal. Unseeded tools
// and every tool at the reference seed must equal the committed
// references. At any other seed a seeded tool is first checked against its
// reference at the reference seed, in one extra untimed pass, and then
// every output at the run's seed, one-shot or from simd, must equal the
// run's first.
func (r *runner) expectations(t *tally, runs []toolRun, parent int64) map[string]*report.Artifact {
	expect := make(map[string]*report.Artifact, len(runs))
	validate := false
	for _, run := range runs {
		if !run.seeded || r.seed == refSeed {
			expect[run.ref] = r.refs[run.ref]
		} else {
			validate = true
		}
	}
	if validate {
		refs := make(map[string]*report.Artifact, len(runs))
		for _, run := range runs {
			refs[run.ref] = r.refs[run.ref]
		}
		r.pass(t, runs, refSeed, refs, "validate", parent, "")
	}
	return expect
}

// setUp starts simd on a fresh store and has it compute the workload's
// runs, reps times, and returns each set-up's time at reference host
// speed. The last daemon stays up, with the replies its warm requests must
// repeat.
func (r *runner) setUp(t *tally, sp *speedometer, w workload, expect map[string]*report.Artifact,
	parent int64, reps int) (*simdProc, [][]byte, []float64, error) {
	var (
		s       *simdProc
		replies [][]byte
		setups  []float64
	)
	for k := 0; k < reps; k++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		before := sp.sample()
		start := time.Now()
		var err error
		if s, err = r.startSimd(filepath.Join(r.out, fmt.Sprintf("simd-%s-%d", w.name, k))); err != nil {
			return nil, nil, nil, err
		}
		replies, err = r.coldRound(t, s, w.runs, expect, parent)
		d := time.Since(start)
		if err != nil {
			s.stop()
			return nil, nil, nil, err
		}
		setups = append(setups, d.Seconds()*factor(before, sp.sample()))
	}
	return s, replies, setups, nil
}

// measure runs a workload with tracing off: set-up, then until the run's
// time is up, a pass, warm requests for warmSlice, and a reference sample
// that puts both at reference host speed.
func (r *runner) measure(w workload) (*result, error) {
	t := &tally{}
	wid := r.tr.newID()
	wstart := time.Now()
	defer func() { r.tr.record(wid, 0, w.name, "workload", 0, wstart, time.Now(), nil) }()

	sp := &speedometer{}
	expect := r.expectations(t, w.runs, wid)
	s, replies, setups, err := r.setUp(t, sp, w, expect, wid, setupReps)
	if err != nil {
		return nil, err
	}
	var wall, cpu, rss, warm, rawWall, rawWarm []float64
	tools := make([][]float64, len(w.runs))
	next := 0
	before := sp.sample()
	for start := time.Now(); time.Since(start) < r.seconds || (len(wall) < minPasses && t.failed == 0); {
		p, per := r.pass(t, w.runs, r.seed, expect, "pass", wid, "")
		lat := r.warmRequests(t, s, w.runs, replies, time.Now().Add(warmSlice), &next, wid)
		after := sp.sample()
		f := factor(before, after)
		before = after
		for _, l := range lat {
			warm = append(warm, l*f)
		}
		rawWarm = append(rawWarm, lat...)
		if p.err != nil {
			continue
		}
		wall = append(wall, p.wall.Seconds()*f)
		rawWall = append(rawWall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds()*f)
		rss = append(rss, float64(p.rssKB)/1024)
		for i, q := range per {
			tools[i] = append(tools[i], q.wall.Seconds()*f)
		}
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	if len(wall) == 0 || len(warm) == 0 {
		return nil, fmt.Errorf("%s: no pass or no warm request succeeded: %s", w.name, firstProblem(t))
	}
	res := &result{Workload: w.name, Seed: r.seed, Detail: map[string]float64{
		"n":               float64(len(wall)),
		"warm_n":          float64(len(warm)),
		"warm_ms_p50":     median(warm),
		"warm_ms_p99":     percentile(warm, 99),
		"raw_pass_s_p50":  median(rawWall),
		"raw_warm_ms_p90": percentile(rawWarm, 90),
		"host_ref_ms":     median(sp.samples),
	}}
	if len(w.runs) > 1 {
		for i, run := range w.runs {
			res.Detail[run.ref+".pass_s"] = median(tools[i])
		}
	}
	res.Metrics, err = withUnits(endToEnd, map[string]float64{
		"pass_s_p50":     median(wall),
		"pass_cpu_s_p50": median(cpu),
		"rss_peak_mb":    mean(rss),
		"warm_ms_p90":    percentile(warm, 90),
		"setup_s":        median(setups),
	})
	res.finish(t)
	return res, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func firstProblem(t *tally) string {
	if len(t.problems) == 0 {
		return "no problem recorded"
	}
	return t.problems[0]
}
